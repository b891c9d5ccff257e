open Numerics
open Gametheory
open Test_helpers

let box2 () = Box.uniform ~dim:2 ~lo:0. ~hi:1.

let test_natural_map_zero_at_solution () =
  let f = Game_fixtures.cournot_vi_map () in
  let star = Vec.make 2 0.3 in
  check_true "residual ~ 0 at Nash" (Vi.residual f (box2 ()) star < 1e-12);
  check_true "is_solution" (Vi.is_solution f (box2 ()) star);
  check_true "nonzero elsewhere" (Vi.residual f (box2 ()) (Vec.make 2 0.1) > 1e-3)

let test_kkt_violation () =
  let f = Game_fixtures.cournot_vi_map () in
  check_true "kkt zero at solution" (Vi.kkt_violation f (box2 ()) (Vec.make 2 0.3) < 1e-12);
  (* at the lower corner, F < 0 (profitable to increase): violated *)
  check_true "kkt violated at 0" (Vi.kkt_violation f (box2 ()) (Vec.zeros 2) > 0.1)

let test_kkt_violation_pinned_bounds () =
  let f = Game_fixtures.cournot_vi_map () in
  (* lo = hi: both bounds bind, so F < 0 there is no violation *)
  check_close ~tol:0. "degenerate box" 0.
    (Vi.kkt_violation f (Box.uniform ~dim:2 ~lo:0. ~hi:0.) (Vec.zeros 2));
  (* a proper box keeps the one-sided checks *)
  check_close ~tol:1e-15 "lower corner" 0.9 (Vi.kkt_violation f (box2 ()) (Vec.zeros 2));
  check_close ~tol:1e-15 "upper corner" 2.1 (Vi.kkt_violation f (box2 ()) (Vec.make 2 1.));
  check_close ~tol:1e-15 "interior" 0.2
    (Vi.kkt_violation f (box2 ()) (Vec.of_list [ 0.1; 0.5 ]))

let test_extragradient () =
  let f = Game_fixtures.cournot_vi_map () in
  let x = Vi.solve_extragradient f (box2 ()) ~x0:(Vec.zeros 2) in
  check_close ~tol:1e-6 "eg x0" 0.3 x.(0);
  check_close ~tol:1e-6 "eg x1" 0.3 x.(1);
  check_raises_invalid "bad gamma" (fun () ->
      Vi.solve_extragradient ~gamma:0. f (box2 ()) ~x0:(Vec.zeros 2) |> ignore)

let test_extragradient_binding_constraint () =
  (* push the solution to the boundary with a tight box *)
  let f = Game_fixtures.cournot_vi_map () in
  let tight = Box.uniform ~dim:2 ~lo:0. ~hi:0.2 in
  let x = Vi.solve_extragradient f tight ~x0:(Vec.zeros 2) in
  check_close ~tol:1e-6 "binds at 0.2" 0.2 x.(0);
  check_true "certified" (Vi.is_solution ~tol:1e-6 f tight x)

let test_monotonicity_probe () =
  let rng = Rng.create 99L in
  check_true "cournot map is monotone"
    (Vi.is_monotone_on_samples rng (Game_fixtures.cournot_vi_map ()) (box2 ()));
  let antimonotone (s : Vec.t) = Vec.of_list [ -.s.(0); -.s.(1) ] in
  check_true "antimonotone detected"
    (not (Vi.is_monotone_on_samples rng antimonotone (box2 ())))

let test_projection_step () =
  let f = Game_fixtures.cournot_vi_map () in
  let x = Vi.projection_step ~gamma:0.5 f (box2 ()) (Vec.zeros 2) in
  (* F(0) = -0.9 each, step = 0 - 0.5 * (-0.9) = 0.45 *)
  check_close ~tol:1e-12 "projection step" 0.45 x.(0)

let prop_extragradient_solves_scaled_cournot =
  prop "extragradient solves Cournot for random costs" ~count:50 (float_range 0. 0.8)
    (fun c ->
      let f = Game_fixtures.cournot_vi_map ~c () in
      let x = Vi.solve_extragradient f (box2 ()) ~x0:(Vec.make 2 0.5) in
      Float.abs (x.(0) -. ((1. -. c) /. 3.)) < 1e-5)

let suite =
  ( "vi",
    [
      quick "natural map" test_natural_map_zero_at_solution;
      quick "kkt violation" test_kkt_violation;
      quick "kkt violation at pinned bounds" test_kkt_violation_pinned_bounds;
      quick "extragradient" test_extragradient;
      quick "extragradient binding" test_extragradient_binding_constraint;
      quick "monotonicity probe" test_monotonicity_probe;
      quick "projection step" test_projection_step;
      prop_extragradient_solves_scaled_cournot;
    ] )
