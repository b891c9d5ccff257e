open Subsidization
open Test_helpers

(* Continuation-vs-cold-start equivalence: the warm-started fused
   solver must reproduce the pre-continuation chain's tables, kept as
   the test-only [Legacy_oracle]. The two take genuinely different
   numerical paths (exact Newton from a predicted guess vs bracketed
   scan from the previous solution), so cells are certified equal
   within [cell_tol] rather than byte-identical; `--jobs 1` vs
   `--jobs 4` byte-identity of the production path is covered by
   test/parallel on the full experiments.

   The full capacity/duopoly experiments cost minutes on the reference
   chain on one core, so the certification runs the SAME code paths
   ([Capacity.investment_incentive] and the two [Duopoly] market
   solvers, which produce the experiments' CSV rows) on the paper's
   3-CP Figure-4/5 population instead of the 8-CP one. *)

let cell_tol = 5e-3

let close ~label a b =
  check_true
    (Printf.sprintf "%s: %.6g vs %.6g" label a b)
    (Float.abs (a -. b) <= cell_tol)

let caps = [ 0.; 0.6 ]
let p_max = 2.5
let unit_cost = 0.15

let capacity_rows ~jobs =
  Parallel.Runtime.set_jobs jobs;
  let plans =
    Capacity.investment_incentive ~pool:(Parallel.Runtime.pool ())
      (Scenario.fig45_system ()) ~pricing:(Capacity.Optimal_price { p_max })
      ~unit_cost ~caps:(Array.of_list caps)
  in
  Array.to_list plans

let check_plans ~label reference candidate =
  List.iter2
    (fun (a : Capacity.plan) (b : Capacity.plan) ->
      close ~label:(label ^ " mu*") a.Capacity.capacity b.Capacity.capacity;
      close ~label:(label ^ " p*") a.Capacity.price b.Capacity.price;
      close ~label:(label ^ " revenue") a.Capacity.revenue b.Capacity.revenue;
      close ~label:(label ^ " profit") a.Capacity.profit b.Capacity.profit;
      close ~label:(label ^ " phi") a.Capacity.utilization b.Capacity.utilization;
      close ~label:(label ^ " welfare") a.Capacity.welfare b.Capacity.welfare)
    reference candidate

let test_capacity_equivalence () =
  let reference =
    List.map
      (fun cap ->
        Legacy_oracle.capacity_plan (Scenario.fig45_system ()) ~p_max ~unit_cost ~cap)
      caps
  in
  let fast1 = capacity_rows ~jobs:1 in
  let fast4 = capacity_rows ~jobs:4 in
  Parallel.Runtime.set_jobs 1;
  check_plans ~label:"capacity fast@1 vs oracle" reference fast1;
  check_plans ~label:"capacity fast@4 vs oracle" reference fast4

let duopoly_markets ~jobs =
  Parallel.Runtime.set_jobs jobs;
  let duopoly cap =
    Duopoly.make ~cps:(Scenario.fig45_cps ()) ~capacity_a:0.5 ~capacity_b:0.5 ~cap ()
  in
  [ Duopoly.monopoly_benchmark (duopoly 1.); Duopoly.price_equilibrium (duopoly 1.) ]

let oracle_markets () =
  let duopoly cap =
    Legacy_oracle.duopoly ~cps:(Scenario.fig45_cps ()) ~capacity_a:0.5 ~capacity_b:0.5
      ~cap
  in
  [
    Legacy_oracle.monopoly_benchmark (duopoly 1.);
    Legacy_oracle.price_equilibrium (duopoly 1.);
  ]

let check_markets ~label reference candidate =
  List.iter2
    (fun (a : Duopoly.market) (b : Duopoly.market) ->
      close ~label:(label ^ " pA") (fst a.Duopoly.prices) (fst b.Duopoly.prices);
      close ~label:(label ^ " pB") (snd a.Duopoly.prices) (snd b.Duopoly.prices);
      close ~label:(label ^ " RA") (fst a.Duopoly.revenues) (fst b.Duopoly.revenues);
      close ~label:(label ^ " RB") (snd a.Duopoly.revenues) (snd b.Duopoly.revenues);
      close ~label:(label ^ " welfare") a.Duopoly.welfare b.Duopoly.welfare)
    reference candidate

let test_duopoly_equivalence () =
  let reference = oracle_markets () in
  let fast1 = duopoly_markets ~jobs:1 in
  let fast4 = duopoly_markets ~jobs:4 in
  Parallel.Runtime.set_jobs 1;
  check_markets ~label:"duopoly fast@1 vs oracle" reference fast1;
  check_markets ~label:"duopoly fast@4 vs oracle" reference fast4

let test_shared_stats_attribution () =
  (* fig8-11 read one memoized sweep: after any consumer runs, the
     captured shared stats must show the sweep's real solver work, so
     the bench gate has non-zero counters to watch *)
  ignore (Experiments.Common.run (Experiments.Registry.find_exn "fig8"));
  match Experiments.Eq_sweep.shared_stats () with
  | None -> Alcotest.fail "sweep ran but no shared stats captured"
  | Some s ->
    check_true "root calls attributed" (s.Experiments.Eq_sweep.root_calls > 0);
    check_true "objective evaluations attributed"
      (s.Experiments.Eq_sweep.objective_evaluations > 0.);
    check_true "AD passes attributed" (s.Experiments.Eq_sweep.deriv_ad > 0.)

let suite =
  ( "continuation-equivalence",
    [
      quick "capacity plans across modes" test_capacity_equivalence;
      quick "duopoly markets across modes" test_duopoly_equivalence;
      quick "eq_sweep shared-stats attribution" test_shared_stats_attribution;
    ] )
