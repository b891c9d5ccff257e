open Numerics

type f = Vec.t -> Vec.t

let natural_map f box x =
  let fx = f x in
  Vec.sub x (Box.project box (Vec.sub x fx))

let residual f box x = Vec.norm_inf (natural_map f box x)

let is_solution ?(tol = 1e-7) f box x = residual f box x <= tol

let kkt_violation f box x =
  let fx = f x in
  let worst = ref 0. in
  for i = 0 to Box.dim box - 1 do
    let violation =
      match (Box.on_lower box x i, Box.on_upper box x i) with
      | true, true -> 0. (* pinned at both bounds: any sign of F_i is stationary *)
      | true, false -> Float.max 0. (-.fx.(i))
      | false, true -> Float.max 0. fx.(i)
      | false, false -> Float.abs fx.(i)
    in
    worst := Float.max !worst violation
  done;
  !worst

let projection_step ~gamma f box x = Box.project box (Vec.axpy (-.gamma) (f x) x)

let solve_extragradient ?(gamma = 0.2) ?(tol = 1e-10) ?(max_iter = 50_000) f box ~x0 =
  if gamma <= 0. then invalid_arg "Vi.solve_extragradient: gamma must be positive";
  let x = ref (Box.project box x0) in
  let rec loop iter =
    if iter > max_iter then
      raise (Fixedpoint.No_convergence "Vi.solve_extragradient: iteration budget");
    let y = projection_step ~gamma f box !x in
    let x' = Box.project box (Vec.axpy (-.gamma) (f y) !x) in
    let moved = Vec.dist_inf x' !x in
    x := x';
    if moved <= tol && residual f box !x <= Float.max tol 1e-8 then !x
    else loop (iter + 1)
  in
  loop 1

let is_monotone_on_samples ?(samples = 64) rng f box =
  let ok = ref true in
  for _ = 1 to samples do
    if !ok then begin
      let x = Box.random_point rng box in
      let y = Box.random_point rng box in
      let lhs = Vec.dot (Vec.sub (f x) (f y)) (Vec.sub x y) in
      if lhs < -1e-9 then ok := false
    end
  done;
  !ok
