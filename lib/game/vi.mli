(** Finite-dimensional variational inequalities on boxes.

    A point [x] in [K] solves [VI(F, K)] when [(y - x)^T F(x) >= 0] for
    all [y in K]. With [F = -u] (minus the marginal utilities) and
    [K = [0,q]^n], solutions are exactly the Nash equilibria of the
    concave subsidization game (Facchinei-Pang, Prop. 1.4.2), which is
    how Theorem 6's sensitivity analysis is justified. *)

type f = Numerics.Vec.t -> Numerics.Vec.t

val natural_map : f -> Box.t -> Numerics.Vec.t -> Numerics.Vec.t
(** [x - Proj_K (x - F x)]: zero exactly at solutions. *)

val residual : f -> Box.t -> Numerics.Vec.t -> float
(** Sup norm of the natural map: a verifiable optimality certificate. *)

val is_solution : ?tol:float -> f -> Box.t -> Numerics.Vec.t -> bool
(** [residual <= tol] (default [1e-7]). *)

val kkt_violation : f -> Box.t -> Numerics.Vec.t -> float
(** Maximum complementarity violation of the box-KKT system: for each
    coordinate, [F_i >= 0] at the lower bound, [F_i <= 0] at the upper
    bound and [F_i = 0] inside; a coordinate at both bounds (a
    degenerate interval) contributes 0. Equivalent to [residual] up to
    clamping, reported in the units of [F]. *)

val projection_step :
  gamma:float -> f -> Box.t -> Numerics.Vec.t -> Numerics.Vec.t
(** One forward projection step [Proj_K (x - gamma F x)]; the basis of
    the extragradient solver. *)

val solve_extragradient :
  ?gamma:float ->
  ?tol:float ->
  ?max_iter:int ->
  f ->
  Box.t ->
  x0:Numerics.Vec.t ->
  Numerics.Vec.t
(** Korpelevich extragradient iteration. Converges for monotone
    Lipschitz [F] with a small enough step [gamma] (default 0.2).
    Raises [Numerics.Fixedpoint.No_convergence]. *)

val is_monotone_on_samples :
  ?samples:int -> Numerics.Rng.t -> f -> Box.t -> bool
(** Randomized check of map monotonicity
    [(F x - F y)^T (x - y) >= 0] on sample pairs; a necessary condition
    witness, not a proof. *)
