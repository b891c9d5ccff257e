open Numerics
open Subsidization
open Test_helpers

let paper_game ?(price = 0.8) ?(cap = 1.0) () =
  Subsidy_game.make (Fixtures.paper5 ()) ~price ~cap

let test_solve_converges () =
  let eq = Nash.solve (paper_game ()) in
  check_true "converged" eq.Nash.converged;
  check_true "kkt small" (eq.Nash.kkt_residual < 1e-6);
  Array.iter
    (fun s -> check_in_range "subsidy in box" ~lo:0. ~hi:1.0 s)
    eq.Nash.subsidies

let test_classification () =
  let game = paper_game ~cap:0.4 () in
  let eq = Nash.solve game in
  let part_count c =
    Array.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 eq.Nash.classes
  in
  check_true "some CP refrains" (part_count Nash.Lower > 0);
  check_true "some CP pinned at cap" (part_count Nash.Upper > 0);
  Array.iteri
    (fun i c ->
      match c with
      | Nash.Lower -> check_true "lower is ~0" (eq.Nash.subsidies.(i) <= 1e-6)
      | Nash.Upper -> check_true "upper is ~q" (eq.Nash.subsidies.(i) >= 0.4 -. 1e-6)
      | Nash.Interior ->
        check_in_range "interior strictly inside" ~lo:1e-7 ~hi:(0.4 -. 1e-7)
          eq.Nash.subsidies.(i))
    eq.Nash.classes

let test_no_subsidy_under_zero_cap () =
  let eq = Nash.solve (paper_game ~cap:0. ()) in
  Array.iter (fun s -> check_close "all zero" 0. s) eq.Nash.subsidies

let test_equilibrium_is_best_response_fixed_point () =
  let game = paper_game () in
  let eq = Nash.solve game in
  let br = Subsidy_game.to_game game in
  Array.iteri
    (fun i si ->
      let reply = Gametheory.Best_response.respond br i eq.Nash.subsidies in
      check_close ~tol:1e-6 (Printf.sprintf "CP %d cannot deviate" i) si reply)
    eq.Nash.subsidies

let test_unilateral_deviations_unprofitable () =
  let game = paper_game () in
  let eq = Nash.solve game in
  let rng = Rng.create 12L in
  for i = 0 to Subsidy_game.dim game - 1 do
    for _ = 1 to 5 do
      let deviation = Rng.uniform rng ~lo:0. ~hi:1. in
      let s' = Vec.copy eq.Nash.subsidies in
      s'.(i) <- deviation;
      check_true "no profitable deviation"
        (Subsidy_game.utility game ~subsidies:s' i
        <= eq.Nash.utilities.(i) +. 1e-7)
    done
  done

let test_threshold_consistency () =
  let game = paper_game () in
  let eq = Nash.solve game in
  check_true "theorem 3 fixed-point form"
    (Nash.threshold_consistency game ~subsidies:eq.Nash.subsidies < 1e-6)

let test_multistart_unique () =
  let game = paper_game () in
  let spread = Nash.multistart_spread ~starts:4 (Rng.create 5L) game in
  check_true "unique equilibrium" (spread < 1e-7)

let test_stability_conditions () =
  let game = paper_game () in
  let eq = Nash.solve game in
  check_true "off-diagonal monotone (Corollary 1 condition)"
    (Nash.off_diagonal_monotone game ~subsidies:eq.Nash.subsidies);
  check_true "-grad u is a P-matrix (Theorem 4 condition)"
    (Nash.jacobian_is_p_matrix game ~subsidies:eq.Nash.subsidies)

let test_theorem5_value_monotonicity () =
  let sys = Fixtures.paper5 () in
  let base = Nash.solve (Subsidy_game.make sys ~price:0.8 ~cap:1.) in
  let cps = Array.copy sys.System.cps in
  cps.(0) <- { cps.(0) with Econ.Cp.value = cps.(0).Econ.Cp.value +. 0.4 };
  let richer = System.make ~cps ~capacity:sys.System.capacity () in
  let bumped = Nash.solve (Subsidy_game.make richer ~price:0.8 ~cap:1.) in
  check_true "richer CP subsidizes more"
    (bumped.Nash.subsidies.(0) >= base.Nash.subsidies.(0) -. 1e-9)

let prop_nash_kkt_on_random_games =
  prop "Nash solver produces KKT-certified equilibria on random markets" ~count:25
    QCheck2.Gen.(triple Fixtures.qcheck_seed (float_range 0.2 1.5) (float_range 0.1 1.5))
    (fun (seed, p, q) ->
      let sys = Fixtures.random_system seed in
      let game = Subsidy_game.make sys ~price:p ~cap:q in
      let eq = Nash.solve game in
      eq.Nash.converged && eq.Nash.kkt_residual < 1e-5)

let prop_corollary1_revenue_monotone_in_cap =
  prop "revenue weakly rises when the cap is relaxed" ~count:20
    QCheck2.Gen.(pair Fixtures.qcheck_seed (float_range 0.2 1.2))
    (fun (seed, p) ->
      let sys = Fixtures.random_system seed in
      let r_at cap =
        let game = Subsidy_game.make sys ~price:p ~cap in
        let eq = Nash.solve game in
        p *. eq.Nash.state.System.aggregate
      in
      r_at 0.6 >= r_at 0.3 -. 1e-6)

let test_kkt_residual_at_zero_cap () =
  (* at q = 0 every subsidy sits at both bounds: any sign of u_i is
     stationary, so the solved game is certified exactly *)
  let sys = Fixtures.paper3 () in
  let n = System.n_cps sys in
  List.iter
    (fun price ->
      let game = Subsidy_game.make sys ~price ~cap:0. in
      let eq = Nash.solve game in
      check_close ~tol:0. (Printf.sprintf "q=0 p=%g" price) 0. eq.Nash.kkt_residual)
    [ 0.3; 0.8 ];
  (* q > 0 keeps the one-sided checks: the corner profiles of the same
     market still report their violations *)
  List.iter
    (fun (price, at_zero, at_cap) ->
      let game = Subsidy_game.make sys ~price ~cap:0.6 in
      check_close ~tol:1e-12
        (Printf.sprintf "zero profile p=%g" price)
        at_zero
        (Nash.kkt_residual game ~subsidies:(Vec.zeros n));
      check_close ~tol:1e-12
        (Printf.sprintf "cap profile p=%g" price)
        at_cap
        (Nash.kkt_residual game ~subsidies:(Vec.make n 0.6)))
    [ (0.3, 0.38351217697148, 0.16502307416630); (0.8, 0.10486775909956, 0.22627003636560) ]

let suite =
  ( "nash",
    [
      quick "solve converges" test_solve_converges;
      quick "classification" test_classification;
      quick "zero cap" test_no_subsidy_under_zero_cap;
      quick "kkt residual at zero cap" test_kkt_residual_at_zero_cap;
      quick "best-response fixed point" test_equilibrium_is_best_response_fixed_point;
      quick "deviations unprofitable" test_unilateral_deviations_unprofitable;
      quick "threshold consistency" test_threshold_consistency;
      quick "multistart unique" test_multistart_unique;
      quick "stability conditions" test_stability_conditions;
      quick "theorem 5" test_theorem5_value_monotonicity;
      prop_nash_kkt_on_random_games;
      prop_corollary1_revenue_monotone_in_cap;
    ] )
