open Subsidization
module Vec = Numerics.Vec
module Optimize = Numerics.Optimize
module Best_response = Gametheory.Best_response

let marginal_jacobian ~h game ~subsidies =
  Numerics.Diff.jacobian ~h
    (fun s -> Subsidy_game.marginal_utilities game ~subsidies:s)
    subsidies

let du_dprice ~h game ~subsidies =
  let p = Subsidy_game.price game in
  let at price =
    (* a fresh game per price: no utilization warm start carried over *)
    let g = Subsidy_game.make (Subsidy_game.system game) ~price ~cap:(Subsidy_game.cap game) in
    Subsidy_game.marginal_utilities g ~subsidies
  in
  (* keep the evaluation prices non-negative *)
  let hp = Float.min h (if p > 0. then p /. 2. else h) in
  if p -. hp < 0. then Vec.scale (1. /. h) (Vec.sub (at (p +. h)) (at p))
  else Vec.scale (1. /. (2. *. hp)) (Vec.sub (at (p +. hp)) (at (p -. hp)))

let nash ?x0 game = Nash.solve ~fused:false ?x0 game

(* ------------------------------------------------------------------ *)
(* capacity *)

(* one cell of a warm-start chain: start from the last converged
   profile (clamped to the box), re-solve cold when that start fails or
   does not converge; only a converged cell seeds the next one *)
let warm_nash last ~cap game =
  let finish (eq : Nash.equilibrium) =
    last := if eq.Nash.converged then Some (Vec.copy eq.Nash.subsidies) else None;
    eq
  in
  let cold () = finish (nash game) in
  match !last with
  | None -> cold ()
  | Some x -> (
    match nash ~x0:(Vec.clamp ~lo:0. ~hi:cap x) game with
    | eq when eq.Nash.converged -> finish eq
    | _ ->
      last := None;
      cold ()
    | exception Numerics.Robust.Solver_error _ ->
      last := None;
      cold ())

let capacity_plan sys ~p_max ~unit_cost ~cap =
  (* one chain for the whole capacity search, as the price scans at
     nearby capacities visit nearby equilibria *)
  let last = ref None in
  let evaluate capacity =
    let sys = System.with_capacity sys capacity in
    let revenue_at p =
      let game = Subsidy_game.make sys ~price:p ~cap in
      Revenue.at_equilibrium game (warm_nash last ~cap game)
    in
    let r = Optimize.grid_then_golden ~points:21 ~tol:1e-5 revenue_at ~lo:0. ~hi:p_max in
    let price = r.Optimize.x in
    let eq = nash (Subsidy_game.make sys ~price ~cap) in
    let revenue = price *. eq.Nash.state.System.aggregate in
    let cost = unit_cost *. capacity in
    {
      Capacity.capacity;
      price;
      revenue;
      cost;
      profit = revenue -. cost;
      utilization = eq.Nash.state.System.phi;
      welfare = Welfare.of_state sys eq.Nash.state;
    }
  in
  let r =
    Optimize.grid_then_golden ~points:13 ~tol:1e-3
      (fun mu -> (evaluate mu).Capacity.profit)
      ~lo:0.05 ~hi:10.
  in
  evaluate r.Optimize.x

(* ------------------------------------------------------------------ *)
(* duopoly *)

type duopoly = {
  model : Duopoly.t;
  cps : Econ.Cp.t array;
  sys_a : System.t;
  sys_b : System.t;
  cap : float;
  mutable subsidy_cache : Vec.t option;
}

let duopoly ~cps ~capacity_a ~capacity_b ~cap =
  let utilization = Econ.Utilization.linear in
  {
    model = Duopoly.make ~utilization ~cps ~capacity_a ~capacity_b ~cap ();
    cps;
    sys_a = System.make ~utilization ~cps ~capacity:capacity_a ();
    sys_b = System.make ~utilization ~cps ~capacity:capacity_b ();
    cap;
    subsidy_cache = None;
  }

(* both utilization equilibria solved cold *)
let states o ~prices ~subsidies =
  let ma, mb = Duopoly.split_populations o.model ~prices ~subsidies in
  ( System.solve_fixed_populations o.sys_a ~populations:ma,
    System.solve_fixed_populations o.sys_b ~populations:mb )

let throughputs (st_a : System.state) (st_b : System.state) =
  Vec.add st_a.System.throughputs st_b.System.throughputs

let solve_subsidies o ~prices =
  let n = Array.length o.cps in
  if o.cap <= 0. then Vec.zeros n
  else begin
    let box = Gametheory.Box.uniform ~dim:n ~lo:0. ~hi:o.cap in
    let payoff i s =
      let st_a, st_b = states o ~prices ~subsidies:s in
      (o.cps.(i).Econ.Cp.value -. s.(i)) *. (throughputs st_a st_b).(i)
    in
    (* no marginal and no fused objective: derivative-free line search *)
    let game = Best_response.make ~respond_points:17 ~box ~payoff () in
    let x0 =
      match o.subsidy_cache with
      | Some s -> Vec.clamp ~lo:0. ~hi:o.cap s
      | None -> Vec.zeros n
    in
    let out = Best_response.solve ~tol:1e-7 ~max_sweeps:100 game ~x0 in
    o.subsidy_cache <- Some out.Best_response.profile;
    out.Best_response.profile
  end

let market_at o ~prices =
  let subsidies = solve_subsidies o ~prices in
  let pa, pb = prices in
  let st_a, st_b = states o ~prices ~subsidies in
  let throughputs = throughputs st_a st_b in
  let welfare = ref 0. in
  Array.iteri (fun i cp -> welfare := !welfare +. (cp.Econ.Cp.value *. throughputs.(i))) o.cps;
  {
    Duopoly.prices;
    subsidies;
    utilizations = (st_a.System.phi, st_b.System.phi);
    populations = (st_a.System.populations, st_b.System.populations);
    throughputs;
    revenues = (pa *. st_a.System.aggregate, pb *. st_b.System.aggregate);
    welfare = !welfare;
  }

let p_max = 2.5

let monopoly_benchmark o =
  let revenue p =
    let m = market_at o ~prices:(p, p) in
    fst m.Duopoly.revenues +. snd m.Duopoly.revenues
  in
  let r = Optimize.grid_then_golden ~points:25 ~tol:1e-4 revenue ~lo:0. ~hi:p_max in
  market_at o ~prices:(r.Optimize.x, r.Optimize.x)

let price_equilibrium o =
  let box = Gametheory.Box.uniform ~dim:2 ~lo:0. ~hi:p_max in
  let payoff i (p : Vec.t) =
    let m = market_at o ~prices:(p.(0), p.(1)) in
    if i = 0 then fst m.Duopoly.revenues else snd m.Duopoly.revenues
  in
  let game = Best_response.make ~respond_points:13 ~box ~payoff () in
  let out = Best_response.solve ~tol:1e-4 ~max_sweeps:30 game ~x0:(Vec.make 2 (p_max /. 2.)) in
  let p = out.Best_response.profile in
  market_at o ~prices:(p.(0), p.(1))
