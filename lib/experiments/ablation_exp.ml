open Subsidization

(* a coarse Figure-7 row: revenue at q = 1 over a small price grid *)
let prices = [| 0.2; 0.5; 0.8; 1.1; 1.4; 1.7; 2.0 |]

(* row 0 is the reference; the others are the perturbed variants. Each
   solver takes the continuation prediction as [?x0]; variants with
   their own start discard it. [~fused:false] is the pre-continuation
   grid-scan respond. *)
let solvers =
  [|
    ("reference (defaults)", fun ?x0 g -> Nash.solve ?x0 g);
    ( "jacobi scheme",
      fun ?x0 g -> Nash.solve ?x0 ~scheme:Gametheory.Best_response.Jacobi g );
    ("damping 0.5", fun ?x0 g -> Nash.solve ?x0 ~damping:0.5 g);
    ("loose tolerance 1e-6", fun ?x0 g -> Nash.solve ?x0 ~tol:1e-6 g);
    ("coarse line search (9 pts)", fun ?x0 g -> Nash.solve ?x0 ~respond_points:9 g);
    ("fine line search (49 pts)", fun ?x0 g -> Nash.solve ?x0 ~respond_points:49 g);
    ("legacy grid-scan respond", fun ?x0 g -> Nash.solve ?x0 ~fused:false g);
    ("extragradient VI solver", fun ?x0 g -> Nash.solve_vi ?x0 ~tol:1e-9 g);
    ( "warm start from cap",
      fun ?x0 g ->
        ignore x0;
        Nash.solve ~x0:(Numerics.Vec.make (Subsidy_game.dim g) (Subsidy_game.cap g)) g
    );
  |]

let max_rel_deviation reference other =
  let worst = ref 0. in
  Array.iteri
    (fun k r ->
      let d = Float.abs (other.(k) -. r) /. Float.max 1e-9 (Float.abs r) in
      worst := Float.max !worst d)
    reference;
  !worst

let run () : Common.outcome =
  let sys = Scenario.fig7_11_system () in
  (* one task per variant: each walks the whole price grid on its own
     continuation track, so the curves are warm-start chains exactly
     like the Figure-7 sweeps *)
  let curves =
    Parallel.Pool.map (Parallel.Runtime.pool ()) ~chunk:1
      (fun vi ->
        let _, solve = solvers.(vi) in
        let track = Numerics.Continuation.track () in
        Array.map
          (fun p ->
            let game = Subsidy_game.make sys ~price:p ~cap:1.0 in
            let eq =
              Numerics.Continuation.solve_cell track ~at:p
                ~clamp:(Numerics.Vec.clamp ~lo:0. ~hi:1.0)
                ~solve:(fun x0 -> solve ?x0 game)
                ~extract:(fun (eq : Nash.equilibrium) ->
                  (eq.Nash.subsidies, eq.Nash.converged))
                ()
            in
            p *. eq.Nash.state.System.aggregate)
          prices)
      (Array.init (Array.length solvers) Fun.id)
  in
  let curve vi = curves.(vi) in
  let reference = curve 0 in
  let table = Report.Table.make ~columns:[ "solver variant"; "max relative deviation" ] in
  Report.Table.add_row table [ fst solvers.(0); "0" ];
  let checks =
    List.init
      (Array.length solvers - 1)
      (fun k ->
        let name = fst solvers.(k + 1) in
        let dev = max_rel_deviation reference (curve (k + 1)) in
        Report.Table.add_row table [ name; Printf.sprintf "%.2e" dev ];
        Common.check
          ~name:(Printf.sprintf "ablation.%s" name)
          (dev < 1e-4)
          (Printf.sprintf "revenue curve deviates by at most %.2e" dev))
  in
  {
    Common.id = "ablation";
    title = "Solver ablation: Figure-7 revenue under perturbed numerics";
    tables = [ ("deviations", table) ];
    plots = [];
    shape_checks = checks;
  }

let experiment =
  {
    Common.id = "ablation";
    title = "Numerics ablation (solver-choice robustness)";
    paper_ref = "design validation (DESIGN.md)";
    run;
  }
