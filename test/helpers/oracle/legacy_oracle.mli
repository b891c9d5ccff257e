(** The pre-continuation solve chain, kept as the reference the
    equivalence tests certify the production path against.

    Built from public library pieces only: grid-scan best responses
    ([Nash.solve ~fused:false]) and a derivative-free duopoly CP game,
    cold utilization solves, warm starts that reuse the previous
    solution unchanged (no secant prediction, no [Continuation] track),
    and central differences over [Subsidy_game.marginal_utilities] in
    place of the exact dual-number derivatives. *)

open Subsidization

val marginal_jacobian :
  h:float -> Subsidy_game.t -> subsidies:Numerics.Vec.t -> Numerics.Mat.t
(** [du_i/ds_j] by central differences with step [h]. *)

val du_dprice :
  h:float -> Subsidy_game.t -> subsidies:Numerics.Vec.t -> Numerics.Vec.t
(** [du_i/dp] by a central price difference (one-sided near [p = 0]),
    each price on a fresh game. *)

val nash : ?x0:Numerics.Vec.t -> Subsidy_game.t -> Nash.equilibrium
(** [Nash.solve ~fused:false]: grid-scan best responses. *)

val capacity_plan :
  System.t -> p_max:float -> unit_cost:float -> cap:float -> Capacity.plan
(** {!Capacity.optimal} under [Optimal_price { p_max }] with the default
    capacity range, every Nash solve by {!nash} on one warm-start
    chain. *)

type duopoly

val duopoly :
  cps:Econ.Cp.t array -> capacity_a:float -> capacity_b:float -> cap:float -> duopoly
(** A {!Duopoly.make} market with the default utilization and [eta],
    solved by the reference chain below. *)

val monopoly_benchmark : duopoly -> Duopoly.market
(** {!Duopoly.monopoly_benchmark} at its defaults. *)

val price_equilibrium : duopoly -> Duopoly.market
(** {!Duopoly.price_equilibrium} at its defaults. *)
