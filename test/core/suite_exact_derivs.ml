open Subsidization
open Test_helpers
module Vec = Numerics.Vec
module Mat = Numerics.Mat
module Dual = Numerics.Dual

(* The exact (dual-number) derivative paths against the
   finite-difference stencils they replace, kept in [Legacy_oracle]:
   the continuation solver and the Theorem-6/8 sensitivity analysis are
   only as sound as these agree. FD carries O(h^2) truncation error
   through a nested equilibrium solve, so the pins use a looser band
   than the pure-kernel tests in test/econ. *)

let rel_close ~tol expected actual =
  Float.abs (actual -. expected) <= tol *. (1. +. Float.abs expected)

let game () =
  Subsidy_game.make (Fixtures.paper3 ()) ~price:0.8 ~cap:0.6

let interior_profile g =
  let n = Subsidy_game.dim g in
  Vec.init n (fun i -> 0.1 +. (0.05 *. float_of_int i))

let test_jacobian_exact_vs_fd () =
  let g = game () in
  let s = interior_profile g in
  let exact = Subsidy_game.marginal_jacobian_exact g ~subsidies:s in
  let fd = Legacy_oracle.marginal_jacobian ~h:1e-6 g ~subsidies:s in
  let n = Subsidy_game.dim g in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      check_true
        (Printf.sprintf "J(%d,%d): exact %.8g vs fd %.8g" i j
           (Mat.get exact i j) (Mat.get fd i j))
        (rel_close ~tol:1e-4 (Mat.get fd i j) (Mat.get exact i j))
    done
  done

let test_du_dprice_exact_vs_fd () =
  let g = game () in
  let s = interior_profile g in
  let exact = Sensitivity.du_dprice g ~subsidies:s in
  let fd = Legacy_oracle.du_dprice ~h:1e-6 g ~subsidies:s in
  Array.iteri
    (fun k fdk ->
      check_true
        (Printf.sprintf "du_%d/dp: exact %.8g vs fd %.8g" k exact.(k) fdk)
        (rel_close ~tol:1e-4 fdk exact.(k)))
    fd

let test_fused_marginal_pins () =
  let g = game () in
  let s = interior_profile g in
  let n = Subsidy_game.dim g in
  for i = 0 to n - 1 do
    let u, du = Subsidy_game.fused_marginal g i s s.(i) in
    (* value pin: the fused objective IS the analytic marginal utility *)
    check_true
      (Printf.sprintf "fused value %d" i)
      (rel_close ~tol:1e-9 (Subsidy_game.marginal_utility g ~subsidies:s i) u);
    (* slope pin: central difference of the fused value in s_i *)
    let h = 1e-5 in
    let up, _ = Subsidy_game.fused_marginal g i s (s.(i) +. h) in
    let um, _ = Subsidy_game.fused_marginal g i s (s.(i) -. h) in
    check_true
      (Printf.sprintf "fused slope %d: %.8g vs stencil %.8g" i du
         ((up -. um) /. (2. *. h)))
      (rel_close ~tol:1e-4 ((up -. um) /. (2. *. h)) du)
  done

let test_duopoly_fused_marginal_pins () =
  let cps = Scenario.fig7_11_cps () in
  let d = Duopoly.make ~cps ~capacity_a:0.5 ~capacity_b:0.5 ~cap:1. () in
  let prices = (0.9, 1.1) in
  let n = Array.length cps in
  let s = Vec.init n (fun i -> 0.05 +. (0.03 *. float_of_int i)) in
  for i = 0 to n - 1 do
    let _, du = Duopoly.fused_marginal d ~prices i s s.(i) in
    let h = 1e-5 in
    let up, _ = Duopoly.fused_marginal d ~prices i s (s.(i) +. h) in
    let um, _ = Duopoly.fused_marginal d ~prices i s (s.(i) -. h) in
    check_true
      (Printf.sprintf "duopoly fused slope %d: %.8g vs stencil %.8g" i du
         ((up -. um) /. (2. *. h)))
      (rel_close ~tol:1e-4 ((up -. um) /. (2. *. h)) du)
  done

let test_marginal_utilities_d_primal () =
  let g = game () in
  let s = interior_profile g in
  let primal = Subsidy_game.marginal_utilities g ~subsidies:s in
  let col = Subsidy_game.marginal_utilities_d g ~subsidies:s 0 in
  Array.iteri
    (fun k (uk : float) ->
      check_true
        (Printf.sprintf "dual primal %d" k)
        (rel_close ~tol:1e-9 uk (Dual.v col.(k))))
    primal

let test_nash_agrees_across_modes () =
  (* the end-to-end pin: the fused Newton respond and the grid-scan
     respond must find the same equilibrium *)
  let g = game () in
  let fast = Nash.solve g in
  let legacy = Legacy_oracle.nash g in
  check_true "both converged" (fast.Nash.converged && legacy.Nash.converged);
  Array.iteri
    (fun i si ->
      check_true
        (Printf.sprintf "s_%d: fast %.8g vs legacy %.8g" i si
           legacy.Nash.subsidies.(i))
        (Float.abs (si -. legacy.Nash.subsidies.(i)) <= 1e-5))
    fast.Nash.subsidies

let test_no_stencils_on_production_paths () =
  (* every derivative the production solve chain takes is exact: none
     of these may fall back to a finite-difference stencil *)
  let g = Subsidy_game.make (Fixtures.paper5 ()) ~price:0.8 ~cap:0.4 in
  Numerics.Diff.reset_stats ();
  Numerics.Ad.reset_stats ();
  let eq = Nash.solve g in
  let subsidies = eq.Nash.subsidies in
  let part = Sensitivity.partition g ~subsidies in
  check_true "interior CPs exercise the price forcing term"
    (Array.length part.Sensitivity.interior > 0);
  ignore (Sensitivity.policy_effect ~dp_dq:0.5 g ~subsidies);
  ignore (Nash.off_diagonal_monotone g ~subsidies);
  ignore (Nash.jacobian_is_p_matrix g ~subsidies);
  ignore (Revenue.curve g ~prices:[| 0.6; 0.7; 0.8 |]);
  check_true "exact passes were taken" ((Numerics.Ad.stats ()).Numerics.Ad.passes > 0.);
  check_close ~tol:0. "no FD estimates" 0.
    (Numerics.Diff.stats ()).Numerics.Diff.estimates

let suite =
  ( "exact-derivs",
    [
      quick "jacobian: exact vs stencil" test_jacobian_exact_vs_fd;
      quick "du/dprice: exact vs stencil" test_du_dprice_exact_vs_fd;
      quick "fused marginal pins" test_fused_marginal_pins;
      quick "duopoly fused marginal pins" test_duopoly_fused_marginal_pins;
      quick "marginal_utilities_d primal" test_marginal_utilities_d_primal;
      quick "nash agrees across modes" test_nash_agrees_across_modes;
      quick "no stencils on production paths" test_no_stencils_on_production_paths;
    ] )
