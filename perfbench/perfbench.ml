(* The repository's benchmark: figure regeneration (workload [sweep]) and
   the solve daemon (workloads [serve-warm] and [serve-cold]), timed end
   to end from outside the library and normalized to the host's nominal
   speed with the reference kernel in [Refkernel]. See README.md for the
   workloads, the metrics and the layer map.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --daemon PATH/TO/main.exe [--out DIR]

   The last line of standard output is one JSON object: [correct],
   [attempted], [failed] and [metrics] (the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]). The exit code
   is 0 only when every output checked out. *)

open Subsidization
open Perfbench_ref
module Json = Obs.Json
module Proto = Service.Proto

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let fail fmt = Printf.ksprintf failwith fmt

(* nearest-rank percentile; [nan] on no samples *)
let percentile values p =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median values = Meter.median values

let mean values =
  match values with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. values /. float_of_int (List.length values)

(* VmHWM of a live process, in MiB ([0.] when unreadable) *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
              kb /. 1024.)
        else scan ()
    in
    let mb = scan () in
    close_in ic;
    mb

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** first few failure descriptions *)
  e2e : metric list;
  layers : metric list;
}

let note_problem problems msg = if List.length !problems < 20 then problems := msg :: !problems

(* ------------------------------------------------------------------ *)
(* Tracing: self time per span name and per layer *)

let layer_of name =
  let has_prefix prefix = String.starts_with ~prefix name in
  if has_prefix "bench." then "bench"
  else if has_prefix "experiment:" then "experiments"
  else if has_prefix "Policy." || has_prefix "Capacity." || has_prefix "nash." || name = "price.point"
  then "core"
  else if name = "best_response.solve" || name = "tatonnement.run" then "game"
  else if name = "system.equilibrium_phi" then "econ"
  else if name = "socket.wait" then "daemon"
  else if has_prefix "proto." || has_prefix "service." || name = "socket.send" then "service"
  else "other"

type span_row = { span : string; count : int; self_s : float }

(* Fold spans into [acc] (span name -> count, self seconds). Self time
   is a span's duration minus the part its children cover; children of
   one span run one after another on one domain here (--jobs 1), so
   their durations add up to the covered part. *)
let dur (s : Obs.Trace.span) = if Float.is_nan s.stop then 0. else s.stop -. s.start

let harvest acc spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      match s.parent with
      | Some p ->
        Hashtbl.replace covered p
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt covered p))
      | None -> ())
    spans;
  List.iter
    (fun (s : Obs.Trace.span) ->
      let self = dur s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id) in
      let count, total = Option.value ~default:(0, 0.) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (count + 1, total +. self))
    spans

let rows_of acc =
  Hashtbl.fold (fun span (count, self_s) rows -> { span; count; self_s } :: rows) acc []
  |> List.sort (fun a b -> compare b.self_s a.self_s)

let span_count rows name =
  List.fold_left (fun acc r -> if r.span = name then acc + r.count else acc) 0 rows

let layer_self rows layer =
  List.fold_left (fun acc r -> if layer_of r.span = layer then acc +. r.self_s else acc) 0. rows

let print_self_table rows ~scale ~per =
  Printf.printf "# self time per span (normalized ms per %s; count over the traced run)\n" per;
  List.iter
    (fun r ->
      Printf.printf "#   %-24s %-12s %10d %12.4f\n" r.span (layer_of r.span) r.count
        (1000. *. r.self_s *. scale))
    rows

let self_layers = [ "experiments"; "core"; "game"; "econ"; "service" ]

let self_metrics rows ~scale =
  List.map
    (fun layer -> metric (layer ^ ".self_ms") "ms" (1000. *. layer_self rows layer *. scale))
    self_layers
  @ [ metric "service.daemon_wait_ms" "ms" (1000. *. layer_self rows "daemon" *. scale) ]

(* Traced sections: the trace buffer is emptied after each one into the
   self-time table and a Chrome trace_event file, written event by event
   (ids offset per section, times relative to the first span), so a
   long run never meets the buffer's cap or holds the whole trace
   (Obs.Export.trace_json builds the whole document in memory: 450 MB
   of peak RSS for 200k spans, and the sweep's traced pass has 565k). *)
type tracer = {
  acc : (string, int * float) Hashtbl.t;
  path : string;
  oc : out_channel;
  mutable t0 : float option;
  mutable id_base : int;
  mutable events : int;
  mutable dropped : int;
}

let tracer_open path =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  { acc = Hashtbl.create 16; path; oc; t0 = None; id_base = 0; events = 0; dropped = 0 }

let traced tr f =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  let result = Fun.protect ~finally:(fun () -> Obs.Trace.set_enabled false) f in
  let spans = Obs.Trace.spans () in
  harvest tr.acc spans;
  let t0 =
    match (tr.t0, spans) with
    | Some t, _ -> t
    | None, s :: _ -> tr.t0 <- Some s.Obs.Trace.start; s.Obs.Trace.start
    | None, [] -> 0.
  in
  let top = ref 0 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      top := max !top s.id;
      Printf.fprintf tr.oc
        "%s{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"span_id\":%d,\"parent_id\":%s}}"
        (if tr.events = 0 then "" else ",")
        s.name
        (1e6 *. (s.start -. t0))
        (1e6 *. dur s)
        (tr.id_base + s.id)
        (match s.parent with Some p -> string_of_int (tr.id_base + p) | None -> "null");
      tr.events <- tr.events + 1)
    spans;
  tr.id_base <- tr.id_base + !top;
  tr.dropped <- tr.dropped + Obs.Trace.dropped ();
  Obs.Trace.clear ();
  result

let tracer_close tr =
  output_string tr.oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out tr.oc;
  Printf.printf "# chrome trace: %s (%d spans, %d dropped)\n" tr.path tr.events tr.dropped

(* ------------------------------------------------------------------ *)
(* Counter snapshots *)

type counters = {
  root_calls : float;
  fixed_point_calls : float;
  objective_evals : float;
  deriv_ad : float;
  deriv_fd : float;
  steps : float;
  accepts : float;
  corrector_iters : float;
  fallbacks : float;
  retries : float;
}

(* the in-process registry, read through the numerics layer's exports *)
let local_counters () =
  let r = Numerics.Robust.stats () and c = Numerics.Continuation.stats () in
  {
    root_calls = float_of_int r.Numerics.Robust.root_calls;
    fixed_point_calls = float_of_int r.Numerics.Robust.fixed_point_calls;
    objective_evals = Obs.Metrics.sum_histograms "solver.evaluations";
    deriv_ad = (Numerics.Ad.stats ()).Numerics.Ad.passes;
    deriv_fd = (Numerics.Diff.stats ()).Numerics.Diff.estimates;
    steps = c.Numerics.Continuation.steps;
    accepts = c.Numerics.Continuation.predictor_accepts;
    corrector_iters = c.Numerics.Continuation.corrector_iterations;
    fallbacks = c.Numerics.Continuation.fallbacks;
    retries = Obs.Metrics.sum_counters "solver.retries";
  }

let diff_counters a b =
  {
    root_calls = b.root_calls -. a.root_calls;
    fixed_point_calls = b.fixed_point_calls -. a.fixed_point_calls;
    objective_evals = b.objective_evals -. a.objective_evals;
    deriv_ad = b.deriv_ad -. a.deriv_ad;
    deriv_fd = b.deriv_fd -. a.deriv_fd;
    steps = b.steps -. a.steps;
    accepts = b.accepts -. a.accepts;
    corrector_iters = b.corrector_iters -. a.corrector_iters;
    fallbacks = b.fallbacks -. a.fallbacks;
    retries = b.retries -. a.retries;
  }

(* a daemon's obs.metrics.v1 frame: sum a series over its label sets *)
let series_sum json name =
  match Option.bind (Json.member "series" json) Json.to_list with
  | None -> 0.
  | Some series ->
    List.fold_left
      (fun acc s ->
        match Json.member "name" s with
        | Some (Json.Str n) when n = name ->
          let field = if Json.member "kind" s = Some (Json.Str "histogram") then "sum" else "value" in
          acc +. Option.value ~default:0. (Option.bind (Json.member field s) Json.to_float)
        | _ -> acc)
      0. series

let remote_counters json =
  let v = series_sum json in
  {
    root_calls = v "solver.root.calls";
    fixed_point_calls = v "solver.fixed_point.calls";
    objective_evals = v "solver.evaluations";
    deriv_ad = v "numerics.deriv.ad";
    deriv_fd = v "numerics.deriv.fd";
    steps = v "continuation.steps";
    accepts = v "continuation.predictor.accepts";
    corrector_iters = v "continuation.corrector.iters";
    fallbacks = v "continuation.fallbacks";
    retries = v "solver.retries";
  }

let counter_metrics c =
  [
    metric "numerics.root_calls" "count" c.root_calls;
    metric "numerics.fixed_point_calls" "count" c.fixed_point_calls;
    metric "numerics.objective_evals" "count" c.objective_evals;
    metric "numerics.deriv_ad" "count" c.deriv_ad;
    metric "numerics.deriv_fd" "count" c.deriv_fd;
    metric "numerics.continuation.steps" "count" c.steps;
    metric "numerics.continuation.accept_ratio" "ratio"
      (if c.steps > 0. then c.accepts /. c.steps else 0.);
    metric "numerics.continuation.corrector_iters" "count" c.corrector_iters;
    metric "numerics.continuation.fallbacks" "count" c.fallbacks;
    metric "numerics.solver.retries" "count" c.retries;
  ]

(* ------------------------------------------------------------------ *)
(* Set-up time: several fresh starts per run, median reported *)

let setup_rounds = 15

(* [release] ends every start but the last, outside the timing *)
let measure_setup ?(release = ignore) m start =
  List.init setup_rounds (fun k ->
      Meter.sample m;
      let result, op = Meter.measure m (fun () -> start k) in
      Meter.sample m;
      if k < setup_rounds - 1 then release result;
      (result, op))

(* ------------------------------------------------------------------ *)
(* Workload sweep: the serial figure regeneration *)

type sweep_inputs = { sys : System.t; caps : float array; prices : float array }

(* the seed moves the right end of the fig7-11 price axis by up to 2%;
   everything else is the paper's Section-5 set-up *)
let sweep_inputs seed =
  let rng = Numerics.Rng.create (Int64.of_int seed) in
  let p_max = Numerics.Rng.uniform rng ~lo:1.96 ~hi:2.04 in
  {
    sys = Scenario.fig7_11_system ();
    caps = Scenario.q_levels ();
    prices = Scenario.price_grid ~points:41 ~p_max ();
  }

(* the experiments of one pass besides the fig7-11 grid *)
let sweep_experiments =
  [
    ("capacity", Experiments.Capacity_exp.experiment);
    ("duopoly", Experiments.Duopoly_exp.experiment);
    ("ablation", Experiments.Ablation_exp.experiment);
  ]

type pass = {
  pass_op : Meter.op;
  unit_ops : (string * Meter.op) list;  (** one per unit, in pass order *)
  digests : (string * string) list;  (** unit -> digest of its results *)
  grid : Policy.point array array;
  pass_problems : string list;
}

let add_bits buf x = Buffer.add_string buf (Int64.to_string (Int64.bits_of_float x))

(* The Theorem-3 residual classifies a zero subsidy as sitting on the
   lower bound, so with cap q = 0 it reports the (feasible, optimal)
   pressure against the upper bound as a violation; there the only
   feasible profile is zero, which is what is checked instead. *)
let certified cap (eq : Nash.equilibrium) =
  if cap > 0. then eq.Nash.kkt_residual < 1e-5
  else Array.for_all (fun s -> s = 0.) eq.Nash.subsidies

(* Corollary 1 on the fresh grid (revenue and welfare nondecreasing in
   q at every price, as fig7's shape checks), plus a certified
   equilibrium at every cell *)
let check_grid caps grid problems =
  Array.iteri
    (fun qi row ->
      Array.iteri
        (fun pi (pt : Policy.point) ->
          let eq = pt.Policy.equilibrium in
          if not (eq.Nash.converged && certified caps.(qi) eq) then
            note_problem problems
              (Printf.sprintf "grid q=%g p=%g: converged=%b kkt=%g" caps.(qi) pt.Policy.price
                 eq.Nash.converged eq.Nash.kkt_residual);
          if qi > 0 then begin
            let below = grid.(qi - 1).(pi) in
            if pt.Policy.revenue < below.Policy.revenue -. 1e-6 then
              note_problem problems (Printf.sprintf "revenue falls with q at p=%g" pt.Policy.price);
            if pt.Policy.welfare < below.Policy.welfare -. 1e-6 then
              note_problem problems (Printf.sprintf "welfare falls with q at p=%g" pt.Policy.price)
          end)
        row)
    grid

let grid_digest grid =
  let buf = Buffer.create 65536 in
  Array.iter
    (Array.iter (fun (pt : Policy.point) ->
         let eq = pt.Policy.equilibrium in
         Array.iter (add_bits buf) eq.Nash.subsidies;
         add_bits buf eq.Nash.state.System.phi;
         add_bits buf pt.Policy.revenue;
         add_bits buf pt.Policy.welfare))
    grid;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The digest of an experiment's tables, as the passes compare them *)
let tables_digest tables =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun (name, table) -> name ^ "\n" ^ Report.Table.to_string table) tables)))

(* The capacity experiment's optimizations, one call per cap: the
   traced pass runs it this way so that each traced section stays
   under the trace buffer's cap (one cap is ~75k spans, all five
   ~360k). Same market, pricing and unit cost as the experiment; the
   result is the digest of the experiment's table built from these
   plans, which the traced pass must share with the first pass. *)
let capacity_by_cap ~section caps =
  let sys = Scenario.fig7_11_system () in
  let table =
    Report.Table.make ~columns:[ "q"; "mu*"; "p*"; "revenue"; "cost"; "profit"; "phi"; "welfare" ]
  in
  Array.iter
    (fun cap ->
      let plan =
        section (Printf.sprintf "capacity.q%g" cap) (fun () ->
            Obs.Trace.with_span "experiment:capacity" @@ fun () ->
            Obs.Trace.with_span "Capacity.optimal" @@ fun () ->
            Capacity.optimal sys ~pricing:(Capacity.Optimal_price { p_max = 2.5 }) ~cap
              ~unit_cost:0.15)
      in
      Report.Table.add_floats table
        Capacity.
          [
            cap; plan.capacity; plan.price; plan.revenue; plan.cost; plan.profit; plan.utilization;
            plan.welfare;
          ])
    caps;
  tables_digest [ ("investment", table) ]

(* One regeneration pass. [section] wraps each unit outside its timing;
   the traced pass collects the unit's spans there, and then also runs
   the capacity experiment cap by cap. *)
let run_pass ?section m inp =
  let problems = ref [] in
  let grid = ref [||] in
  let digests = ref [] in
  let wrap = match section with Some w -> w | None -> fun _ f -> f () in
  let timed id f =
    let op = ref None in
    wrap id (fun () -> op := Some (snd (Meter.measure m f)));
    (id, Option.get !op)
  in
  let experiment (id, e) =
    timed id (fun () ->
        let outcome = Experiments.Common.run ~isolate_stats:false e in
        List.iter
          (fun (c : Theorems.check) ->
            if not c.Theorems.passed then
              note_problem problems (Printf.sprintf "%s: shape check %s failed" id c.Theorems.name))
          outcome.Experiments.Common.shape_checks;
        if Experiments.Common.degraded_count outcome > 0 then
          note_problem problems (Printf.sprintf "%s: degraded samples" id);
        digests := (id, tables_digest outcome.Experiments.Common.tables) :: !digests)
  in
  let unit_ops, pass_op =
    Meter.measure m (fun () ->
        let grid_op =
          timed "policy_sweep" (fun () ->
              grid :=
                Obs.Trace.with_span "experiment:fig7-11" @@ fun () ->
                Obs.Trace.with_span "Policy.policy_sweep" @@ fun () ->
                Policy.policy_sweep ~pool:(Parallel.Runtime.pool ()) inp.sys ~caps:inp.caps
                  ~prices:inp.prices)
        in
        let capacity =
          match section with
          | None -> [ experiment (List.hd sweep_experiments) ]
          | Some _ ->
            let ops = ref [] in
            let digest =
              capacity_by_cap inp.caps ~section:(fun id f ->
                  let result = ref None in
                  ops := timed id (fun () -> result := Some (f ())) :: !ops;
                  Option.get !result)
            in
            digests := ("capacity", digest) :: !digests;
            List.rev !ops
        in
        (grid_op :: capacity) @ List.map experiment (List.tl sweep_experiments))
  in
  let grid = !grid in
  check_grid inp.caps grid problems;
  {
    pass_op;
    unit_ops;
    digests = ("policy_sweep", grid_digest grid) :: !digests;
    grid;
    pass_problems = List.rev !problems;
  }

(* child mode for the sweep's set-up time: start, build the paper's
   market, solve one equilibrium, exit *)
let ready () =
  Parallel.Runtime.set_jobs 1;
  let eq = Policy.nash_at (Scenario.fig7_11_system ()) ~price:0.8 ~cap:1.0 in
  exit (if eq.Nash.converged then 0 else 3)

let run_sweep ~seed ~seconds ~trace ~out =
  Parallel.Runtime.set_jobs 1;
  let m = Meter.create () in
  (* the probe fires before every guarded objective evaluation: it is
     where the reference slices interleave with the solver work *)
  let probe_calls = ref 0 in
  let probe () =
    incr probe_calls;
    if !probe_calls land 31 = 0 then Meter.tick m
  in
  Numerics.Robust.with_probe probe @@ fun () ->
  let setups =
    measure_setup m (fun _ ->
        let self = Sys.executable_name in
        let pid = Unix.create_process self [| self; "--ready" |] Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> true
        | _ -> false)
  in
  let inp = sweep_inputs seed in
  let attempted = ref 0 and failed = ref 0 in
  let problems = ref [] in
  let reference = ref [] in
  let judge (p : pass) =
    incr attempted;
    let bad = ref p.pass_problems in
    if !reference = [] then reference := p.digests
    else
      List.iter
        (fun (id, d) ->
          match List.assoc_opt id !reference with
          | Some r when r = d -> ()
          | _ -> bad := (id ^ ": results differ from the first pass") :: !bad)
        p.digests;
    if !bad <> [] then begin
      incr failed;
      List.iter (note_problem problems) !bad
    end
  in
  List.iter (fun (ok, _) -> if not ok then note_problem problems "set-up child failed") setups;
  let setup_failed = List.exists (fun (ok, _) -> not ok) setups in
  (* warm-up pass: lazy initialization and heap growth, checked but untimed *)
  judge (run_pass m inp);
  let t_start = Unix.gettimeofday () in
  let par0 = Parallel.Runtime.stats () in
  let c0 = local_counters () in
  let first = run_pass m inp in
  let c1 = local_counters () in
  let par1 = Parallel.Runtime.stats () in
  judge first;
  let passes = ref [ first ] in
  while Unix.gettimeofday () -. t_start < seconds do
    let p = run_pass m inp in
    judge p;
    (* only the first pass keeps its grid, so memory does not grow with
       the number of passes *)
    passes := { p with grid = [||] } :: !passes
  done;
  let traced =
    if trace then begin
      let tr = tracer_open (Filename.concat out "trace-sweep.json") in
      let p = run_pass ~section:(fun _ f -> traced tr f) m inp in
      tracer_close tr;
      judge p;
      Some (p, tr)
    end
    else None
  in
  let peak = peak_rss_mb "self" in
  Meter.finish m;
  let passes = List.rev !passes in
  let norm op = Meter.normalized m op in
  let pass_s = List.map (fun p -> norm p.pass_op) passes in
  let raw_pass_s = List.map (fun p -> Meter.raw p.pass_op) passes in
  let setup_s = List.map (fun (_, op) -> norm op) setups in
  let n = List.length passes in
  let p50 = median pass_s in
  let e2e =
    [
      metric ~samples:setup_rounds "setup_s" "s" (median setup_s);
      metric ~samples:n "pass_s" "s" p50;
      metric ~samples:n "req_per_s" "1/s" (float_of_int n /. List.fold_left ( +. ) 0. pass_s);
      metric ~samples:n "rtt_p50_ms" "ms" (1000. *. p50);
      metric ~samples:n "rtt_p99_ms" "ms" (1000. *. percentile pass_s 99.);
      metric ~samples:!attempted "ok_ratio" "ratio"
        (1. -. (float_of_int !failed /. float_of_int !attempted));
      metric "peak_mem_mb" "MiB" peak;
    ]
  in
  Printf.printf "# host: ref slice median %.4f ms over %d slices; raw pass median %.4f s\n"
    (1000. *. Meter.ref_median m) (Meter.slices m) (median raw_pass_s);
  let layers =
    match traced with
    | None -> []
    | Some (tp, tr) ->
      let rows = rows_of tr.acc in
      let units_time f p = List.fold_left (fun acc (_, op) -> acc +. f op) 0. p.unit_ops in
      let scale = units_time norm tp /. units_time Meter.raw tp in
      print_self_table rows ~scale ~per:"pass";
      let unit_median id =
        median (List.map (fun p -> norm (List.assoc id p.unit_ops)) passes)
      in
      let points = Array.to_list (Array.concat (Array.to_list first.grid)) in
      let eqs = List.map (fun (pt : Policy.point) -> pt.Policy.equilibrium) points in
      let par_delta f =
        match (par0, par1) with
        | Some a, Some b -> float_of_int (f b - f a)
        | None, Some b -> float_of_int (f b)
        | _ -> 0.
      in
      let tasks (s : Parallel.Pool.stats) = Array.fold_left ( + ) 0 s.Parallel.Pool.tasks_run in
      counter_metrics (diff_counters c0 c1)
      @ [
          metric "core.nash.solves" "count"
            (float_of_int (span_count rows "nash.solve" + span_count rows "nash.solve_vi"));
          metric "core.nash.sweeps_per_solve" "count"
            (mean (List.map (fun (eq : Nash.equilibrium) -> float_of_int eq.Nash.sweeps) eqs));
          metric "core.nash.max_kkt_residual" "ratio"
            (Array.fold_left
               (fun acc row ->
                 Array.fold_left
                   (fun acc (pt : Policy.point) ->
                     if pt.Policy.cap > 0. then Float.max acc pt.Policy.equilibrium.Nash.kkt_residual
                     else acc)
                   acc row)
               0. first.grid);
          metric "game.best_response.calls" "count"
            (float_of_int (span_count rows "best_response.solve"));
          metric ~samples:n "experiments.policy_sweep_s" "s" (unit_median "policy_sweep");
          metric ~samples:n "experiments.capacity_s" "s" (unit_median "capacity");
          metric ~samples:n "experiments.duopoly_s" "s" (unit_median "duopoly");
          metric ~samples:n "experiments.ablation_s" "s" (unit_median "ablation");
          metric "parallel.batches" "count" (par_delta (fun s -> s.Parallel.Pool.batches));
          metric "parallel.tasks" "count" (par_delta tasks);
          metric "obs.trace_overhead" "ratio"
            (units_time norm tp /. median (List.map (units_time norm) passes));
          metric "obs.trace_dropped" "count" (float_of_int tr.dropped);
          metric ~samples:(Meter.slices m) "host.ref_ms" "ms" (1000. *. Meter.ref_median m);
          metric ~samples:n "host.raw_pass_s" "s" (median raw_pass_s);
          metric ~samples:n "host.raw_rtt_p50_ms" "ms" (1000. *. median raw_pass_s);
        ]
      @ self_metrics rows ~scale
  in
  {
    attempted = !attempted + setup_rounds;
    failed = !failed + (if setup_failed then 1 else 0);
    problems = List.rev !problems;
    e2e;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* The solve daemon: process control and a line transport. The client
   is written here rather than taken from Service.Client so that a
   request's encode, send, wait and decode can be timed and traced
   apart. *)

type conn = { fd : Unix.file_descr; inbox : Buffer.t; chunk : Bytes.t }

type daemon = { pid : int; label : string; conn : conn }

let live_daemons : int list ref = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_daemons;
  live_daemons := []

let send_line c line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let rec go off =
    if off < len then
      match Unix.write c.fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_line ?(timeout = 30.) c =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let s = Buffer.contents c.inbox in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear c.inbox;
      Buffer.add_substring c.inbox s (i + 1) (String.length s - i - 1);
      Ok (String.sub s 0 i)
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Error "timeout waiting for the daemon"
      else begin
        match Unix.select [ c.fd ] [] [] left with
        | [], _, _ -> go ()
        | _ -> (
          match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
          | 0 -> Error "daemon closed the connection"
          | n ->
            Buffer.add_subbytes c.inbox c.chunk 0 n;
            go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      end
  in
  go ()

let call c request =
  send_line c (Proto.request_to_line request);
  match read_line c with
  | Error e -> Error e
  | Ok line -> Proto.response_of_line line

let rec connect_retry sock ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    Unix.close fd;
    if Unix.gettimeofday () > deadline then fail "daemon did not listen on %s" sock;
    Unix.sleepf 0.0001;
    connect_retry sock ~deadline

(* fork a fresh daemon (one solver domain, empty cache, no snapshot,
   private journal) and wait until it answers a Ping *)
let start_daemon ~exe ~dir name =
  let path ext = Filename.concat dir (name ^ ext) in
  let sock = path ".sock" in
  let env =
    Array.append [| "SUBSIDIZATION_JOBS=1" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"SUBSIDIZATION_JOBS=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let log = Unix.openfile (path ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; sock; "--journal"; path ".journal"; "--cache"; "256"; "--queue"; "64" |]
      env Unix.stdin log log
  in
  Unix.close log;
  live_daemons := pid :: !live_daemons;
  let fd = connect_retry sock ~deadline:(Unix.gettimeofday () +. 20.) in
  let conn = { fd; inbox = Buffer.create 4096; chunk = Bytes.create 65536 } in
  (match call conn Proto.Ping with
  | Ok Proto.Pong -> ()
  | _ -> fail "daemon %s did not answer Ping" name);
  { pid; label = name; conn }

let stop_daemon d =
  (match call d.conn Proto.Shutdown with _ -> ());
  Unix.close d.conn.fd;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    | _ -> ()
  in
  wait ();
  live_daemons := List.filter (fun p -> p <> d.pid) !live_daemons

let metrics_frame d =
  match call d.conn (Proto.Metrics { prefix = "" }) with
  | Ok (Proto.Metrics_snapshot json) -> json
  | _ -> fail "daemon %s: no metrics snapshot" d.label

(* ------------------------------------------------------------------ *)
(* Request streams *)

type gen = {
  rng : Numerics.Rng.t;
  cold : bool;
  pops : Econ.Cp.t array array;  (** the paper's 8-CP and 9-CP populations *)
  repeat : float;  (** share of exact repeats *)
  neighbour : float;  (** share of perturbed neighbours *)
  recent : Proto.market array;  (** the last distinct markets, a ring *)
  mutable seen : int;
}

(* serve-warm's mix is the load generator's default one: its repeat and
   neighbour shares (30% each, the rest fresh) and its memory of the
   last 16 distinct markets *)
let recent_size = 16

let generator ~cold seed =
  let mix =
    Service.Loadgen.default_config ~address:(Service.Server.Unix_path "") ~requests:1
  in
  {
    rng = Numerics.Rng.create (Int64.of_int seed);
    cold;
    pops = [| Scenario.fig7_11_cps (); Scenario.fig45_cps () |];
    repeat = mix.Service.Loadgen.reuse_fraction;
    neighbour = mix.Service.Loadgen.neighbour_fraction;
    recent = Array.make recent_size { Proto.capacity = 1.; price = 0.; cap = 0.; cps = [||] };
    seen = 0;
  }

let random_population rng = Array.init 8 (fun _ -> Scenario.random_cp rng)

let knobs rng =
  let price = Numerics.Rng.uniform rng ~lo:0.05 ~hi:2. in
  let cap = Numerics.Rng.uniform rng ~lo:0. ~hi:2. in
  (price, cap)

(* the same population with price, cap and capacity each nudged by up
   to 5%, as the load generator's neighbours: a client tuning the knobs *)
let neighbour_market rng (m : Proto.market) =
  let nudge x = x *. Numerics.Rng.uniform rng ~lo:0.95 ~hi:1.05 in
  {
    m with
    Proto.price = Float.max 0.01 (nudge m.Proto.price);
    cap = Float.max 0.01 (nudge m.Proto.cap);
    capacity = Float.max 0.1 (nudge m.Proto.capacity);
  }

let next_market g =
  let r = g.rng in
  let remember market =
    g.recent.(g.seen mod recent_size) <- market;
    g.seen <- g.seen + 1;
    market
  in
  let recent () = g.recent.(Numerics.Rng.int r (min g.seen recent_size)) in
  if g.cold then begin
    let cps = random_population r in
    let price, cap = knobs r in
    { Proto.capacity = Numerics.Rng.uniform r ~lo:0.5 ~hi:2.; price; cap; cps }
  end
  else begin
    let u = Numerics.Rng.float r in
    if g.seen > 0 && u < g.repeat then recent ()
    else if g.seen > 0 && u < g.repeat +. g.neighbour then remember (neighbour_market r (recent ()))
    else begin
      let price, cap = knobs r in
      remember { Proto.capacity = 1.; price; cap; cps = g.pops.(Numerics.Rng.int r 2) }
    end
  end

let same_answer (a : Proto.solved) (b : Proto.solved) =
  let eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  Array.length a.subsidies = Array.length b.subsidies
  && Array.for_all2 eq a.subsidies b.subsidies
  && eq a.phi b.phi && eq a.aggregate b.aggregate && eq a.revenue b.revenue
  && a.converged = b.converged && a.sweeps = b.sweeps && eq a.kkt_residual b.kkt_residual

(* ------------------------------------------------------------------ *)
(* Workloads serve-warm and serve-cold *)

(* Every request's raw round trip, the segment of the reference timeline
   it ran in (slices run only between requests) and the daemon's solve
   time ([nan] when the request failed). The arrays are allocated and
   filled up front, so the client's memory does not grow with the run. *)
type log = { raw : Float.Array.t; solve : Float.Array.t; seg : int array; mutable len : int }

let log_create capacity =
  {
    raw = Float.Array.make capacity 0.;
    solve = Float.Array.make capacity Float.nan;
    seg = Array.make capacity 0;
    len = 0;
  }

let log_add log ~seg ~raw ~solve =
  let i = log.len in
  Float.Array.set log.raw i raw;
  Float.Array.set log.solve i solve;
  log.seg.(i) <- seg;
  log.len <- i + 1

let max_requests = 1 lsl 18

(* the first [count_answers] requests keep their market, answer and
   response frame for the traced phases *)
type sample = {
  market : Proto.market;
  solved : Proto.solved option;
  line : string;  (** the response frame, for the decode timing *)
}

let count_answers = 1000 (* requests over which counts are exact *)

(* one closed-loop request: encode, send, wait, decode *)
let request m log conn ~id market =
  let seg = Meter.segment m in
  let t0 = Unix.gettimeofday () in
  let line, response =
    Obs.Trace.with_span "bench.request" @@ fun () ->
    let frame =
      Obs.Trace.with_span "proto.encode" (fun () ->
          Proto.request_to_line (Proto.Solve { id; market; params = Proto.no_params }))
    in
    Obs.Trace.with_span "socket.send" (fun () -> send_line conn frame);
    match Obs.Trace.with_span "socket.wait" (fun () -> read_line conn) with
    | Error e -> ("", Error e)
    | Ok reply -> (reply, Obs.Trace.with_span "proto.decode" (fun () -> Proto.response_of_line reply))
  in
  let raw = Unix.gettimeofday () -. t0 in
  let solve =
    match response with Ok (Proto.Solved { result; _ }) -> result.Proto.solve_s | _ -> Float.nan
  in
  log_add log ~seg ~raw ~solve;
  (line, response)

type checker = {
  originals : (string, Proto.solved) Hashtbl.t;  (** recent first answers by fingerprint *)
  recent : string Queue.t;
  mutable c_failed : int;
  mutable aborts : int;
  c_problems : string list ref;
}

let check_answer ck ~id ~market response =
  let bad msg =
    ck.c_failed <- ck.c_failed + 1;
    note_problem ck.c_problems (Printf.sprintf "%s: %s" id msg);
    None
  in
  match response with
  | Error e -> bad e
  | Ok (Proto.Solved { id = rid; result }) ->
    if rid <> id then bad ("answer for " ^ rid)
    else if not result.Proto.converged then bad "not converged"
    else if not (result.Proto.kkt_residual <= 1e-5) then
      bad (Printf.sprintf "kkt residual %g" result.Proto.kkt_residual)
    else begin
      let fp = Service.Cache.fingerprint market in
      match (result.Proto.cache, Hashtbl.find_opt ck.originals fp) with
      | Proto.Hit, None -> bad "cache hit for a market never answered"
      | Proto.Hit, Some original ->
        if same_answer original result then Some result else bad "cache hit differs from the original answer"
      | _, Some _ -> Some result
      | _, None ->
        (* repeats come from the last 16 distinct markets; 256 is ample *)
        Hashtbl.replace ck.originals fp result;
        Queue.push fp ck.recent;
        if Queue.length ck.recent > 256 then Hashtbl.remove ck.originals (Queue.pop ck.recent);
        Some result
    end
  | Ok (Proto.Degraded { reason; _ }) ->
    if
      String.starts_with ~prefix:"deadline exceeded" reason
      || String.starts_with ~prefix:"evaluation budget exceeded" reason
    then ck.aborts <- ck.aborts + 1;
    bad ("degraded: " ^ reason)
  | Ok (Proto.Shed _) -> bad "shed"
  | Ok (Proto.Rejected { reason; _ }) -> bad ("rejected: " ^ Proto.reject_to_string reason)
  | Ok _ -> bad "unexpected response"

let run_serve ~cold ~seed ~seconds ~trace ~exe ~out =
  let name = if cold then "serve-cold" else "serve-warm" in
  let dir = Filename.concat out (Printf.sprintf "run-%s-%d-%d" name seed (Unix.getpid ())) in
  mkdir_p dir;
  let m = Meter.create () in
  let setups =
    measure_setup ~release:stop_daemon m (fun k -> start_daemon ~exe ~dir (Printf.sprintf "d%d" k))
  in
  let d = fst (List.nth setups (setup_rounds - 1)) in
  let ck =
    { originals = Hashtbl.create 512; recent = Queue.create (); c_failed = 0; aborts = 0; c_problems = ref [] }
  in
  let g = generator ~cold seed in
  let log = log_create max_requests in
  let samples = ref [] in
  let counts_frame = ref None in
  let t_start = Unix.gettimeofday () in
  while
    (log.len < count_answers || Unix.gettimeofday () -. t_start < seconds) && log.len < max_requests
  do
    Meter.tick m;
    let market = next_market g in
    let id = string_of_int log.len in
    let line, response = request m log d.conn ~id market in
    let solved = check_answer ck ~id ~market response in
    (* a request whose answer failed a check counts as failed in the timings too *)
    if Option.is_none solved then Float.Array.set log.solve (log.len - 1) Float.nan;
    if log.len <= count_answers then samples := { market; solved; line } :: !samples;
    if log.len = count_answers && trace then counts_frame := Some (metrics_frame d)
  done;
  let final_frame = metrics_frame d in
  let peak = peak_rss_mb "self" +. peak_rss_mb (string_of_int d.pid) in
  stop_daemon d;
  let first = Array.of_list (List.rev !samples) in
  (* traced phases: the first [count_answers] requests again, against a
     fresh daemon with client spans, then replayed in process through
     Server.solve_one, Cache and Proto *)
  let traced =
    if trace then begin
      let tr = tracer_open (Filename.concat out (Printf.sprintf "trace-%s.json" name)) in
      (* 100 requests per traced section keeps each under the buffer's cap *)
      let each f =
        let rec go lo =
          if lo < count_answers then begin
            traced tr (fun () ->
                for i = lo to min count_answers (lo + 100) - 1 do
                  f i first.(i)
                done);
            go (lo + 100)
          end
        in
        go 0
      in
      let differs what i =
        ck.c_failed <- ck.c_failed + 1;
        note_problem ck.c_problems (Printf.sprintf "%s request %d differs from the first run" what i)
      in
      let traced_log = log_create count_answers in
      let (), traced_op =
        Meter.measure m (fun () ->
            let d2 = start_daemon ~exe ~dir "traced" in
            each (fun i a ->
                Meter.tick m;
                let _, response = request m traced_log d2.conn ~id:(string_of_int i) a.market in
                match (response, a.solved) with
                | Ok (Proto.Solved { result; _ }), Some orig
                  when same_answer result orig && result.Proto.cache = orig.Proto.cache ->
                  ()
                | _ -> differs "traced" i);
            stop_daemon d2;
            let cache = Service.Cache.create ~capacity:256 in
            each (fun i a ->
                Meter.tick m;
                Obs.Trace.with_span "bench.replay" @@ fun () ->
                let id = string_of_int i in
                let line =
                  Obs.Trace.with_span "proto.encode" (fun () ->
                      Proto.request_to_line (Proto.Solve { id; market = a.market; params = Proto.no_params }))
                in
                match Obs.Trace.with_span "proto.decode" (fun () -> Proto.request_of_line line) with
                | Ok (Proto.Solve { market; params; _ }) -> (
                  let result =
                    Obs.Trace.with_span "service.solve_one" (fun () ->
                        Service.Server.solve_one ~cache ~params market)
                  in
                  match (result, a.solved) with
                  | Ok r, Some orig when same_answer r orig && r.Proto.cache = orig.Proto.cache ->
                    let reply =
                      Obs.Trace.with_span "proto.encode" (fun () ->
                          Proto.response_to_line (Proto.Solved { id; result = r }))
                    in
                    ignore (Obs.Trace.with_span "proto.decode" (fun () -> Proto.response_of_line reply))
                  | _ -> differs "replayed" i)
                | _ -> differs "replayed" i))
      in
      tracer_close tr;
      (* Proto on the workload's own frames, timed in bulk *)
      let reps = 5 in
      let (), enc_op =
        Meter.measure m (fun () ->
            for _ = 1 to reps do
              Array.iteri
                (fun i a ->
                  ignore
                    (Proto.request_to_line
                       (Proto.Solve { id = string_of_int i; market = a.market; params = Proto.no_params })))
                first
            done)
      in
      let (), dec_op =
        Meter.measure m (fun () ->
            for _ = 1 to reps do
              Array.iter (fun a -> ignore (Proto.response_of_line a.line)) first
            done)
      in
      Some (traced_log, traced_op, enc_op, dec_op, reps, tr)
    end
    else None
  in
  Meter.finish m;
  let norm op = Meter.normalized m op in
  let ok log i = not (Float.is_nan (Float.Array.get log.solve i)) in
  let scale log i = Meter.scale m log.seg.(i) in
  (* a failed request misses every limit *)
  let rtt log i = if ok log i then Float.Array.get log.raw i *. scale log i else Float.infinity in
  let solve_norm log i = Float.Array.get log.solve i *. scale log i in
  let range lo hi f = List.init (hi - lo) (fun k -> f (lo + k)) in
  let total = log.len in
  let rtts = range 0 total (rtt log) in
  let raw_rtts = range 0 total (Float.Array.get log.raw) in
  (* a pass is 1000 requests' round trips, at the run's mean *)
  let pass_of times = 1000. *. mean times in
  let setup_s = List.map (fun (_, op) -> norm op) setups in
  let e2e =
    [
      metric ~samples:setup_rounds "setup_s" "s" (median setup_s);
      metric ~samples:total "pass_s" "s" (pass_of rtts);
      metric ~samples:total "req_per_s" "1/s" (float_of_int total /. List.fold_left ( +. ) 0. rtts);
      metric ~samples:total "rtt_p50_ms" "ms" (1000. *. percentile rtts 50.);
      metric ~samples:total "rtt_p99_ms" "ms" (1000. *. percentile rtts 99.);
      metric ~samples:total "ok_ratio" "ratio" (1. -. (float_of_int ck.c_failed /. float_of_int total));
      metric "peak_mem_mb" "MiB" peak;
    ]
  in
  Printf.printf "# host: ref slice median %.4f ms over %d slices; raw rtt p50 %.4f ms; raw pass %.4f s\n"
    (1000. *. Meter.ref_median m) (Meter.slices m)
    (1000. *. percentile raw_rtts 50.)
    (pass_of raw_rtts);
  let layers =
    match traced with
    | None -> []
    | Some (traced_log, traced_op, enc_op, dec_op, reps, tr) ->
      let rows = rows_of tr.acc in
      let per = float_of_int count_answers in
      print_self_table rows ~scale:(Meter.factor m traced_op /. per) ~per:"request";
      let frame = Option.value ~default:final_frame !counts_frame in
      let solved = List.filter_map (fun a -> a.solved) (Array.to_list first) in
      let source s = List.length (List.filter (fun (r : Proto.solved) -> r.Proto.cache = s) solved) in
      let ratio k = float_of_int k /. per in
      let computed = List.filter (fun (r : Proto.solved) -> r.Proto.cache <> Proto.Hit) solved in
      let oks = List.filter (ok log) (range 0 total Fun.id) in
      let ms f = List.map (fun i -> 1000. *. f i) oks in
      counter_metrics (remote_counters frame)
      @ [
          metric "core.nash.solves" "count" (float_of_int (List.length computed));
          metric "core.nash.sweeps_per_solve" "count"
            (mean (List.map (fun (r : Proto.solved) -> float_of_int r.Proto.sweeps) computed));
          metric "core.nash.max_kkt_residual" "ratio"
            (List.fold_left (fun acc (r : Proto.solved) -> Float.max acc r.Proto.kkt_residual) 0. solved);
          metric "game.best_response.calls" "count"
            (float_of_int (span_count rows "best_response.solve"));
          metric ~samples:total "service.solve_ms_p50" "ms" (percentile (ms (solve_norm log)) 50.);
          metric ~samples:total "service.solve_ms_p99" "ms" (percentile (ms (solve_norm log)) 99.);
          metric ~samples:total "service.overhead_ms_p50" "ms"
            (percentile (ms (fun i -> rtt log i -. solve_norm log i)) 50.);
          metric ~samples:(reps * count_answers) "service.proto.encode_us" "us"
            (1e6 *. norm enc_op /. float_of_int (reps * count_answers));
          metric ~samples:(reps * count_answers) "service.proto.decode_us" "us"
            (1e6 *. norm dec_op /. float_of_int (reps * count_answers));
          metric "service.cache.hit_ratio" "ratio" (ratio (source Proto.Hit));
          metric "service.cache.warm_ratio" "ratio" (ratio (source Proto.Warm));
          metric "service.cache.cold_ratio" "ratio" (ratio (source Proto.Cold));
          metric "service.cache.evictions" "count" (series_sum frame "service.cache.evictions");
          metric "service.requests.degraded" "count" (series_sum final_frame "service.requests.degraded");
          metric "service.requests.shed" "count" (series_sum final_frame "service.requests.shed");
          metric "runner.watchdog_aborts" "count" (float_of_int ck.aborts);
          metric "obs.trace_overhead" "ratio"
            (percentile (range 0 count_answers (rtt traced_log)) 50.
            /. percentile (range 0 count_answers (rtt log)) 50.);
          metric "obs.trace_dropped" "count" (float_of_int tr.dropped);
          metric ~samples:(Meter.slices m) "host.ref_ms" "ms" (1000. *. Meter.ref_median m);
          metric ~samples:total "host.raw_pass_s" "s" (pass_of raw_rtts);
          metric ~samples:total "host.raw_rtt_p50_ms" "ms" (1000. *. percentile raw_rtts 50.);
        ]
      @ self_metrics rows ~scale:(Meter.factor m traced_op /. per)
  in
  rm_rf dir;
  {
    attempted = total + setup_rounds;
    failed = ck.c_failed;
    problems = List.rev !(ck.c_problems);
    e2e;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* Entry point *)

(* Every run prints all of these, in this order: the end-to-end metrics
   with --trace 0, the per-layer ones with --trace 1. A per-layer metric
   a workload has no such layer for reads 0 (the "predicted no change"
   rows of README.md). *)
let e2e_names = [ "setup_s"; "pass_s"; "req_per_s"; "rtt_p50_ms"; "rtt_p99_ms"; "ok_ratio"; "peak_mem_mb" ]

let layer_spec =
  [
    ("numerics.root_calls", "count");
    ("numerics.fixed_point_calls", "count");
    ("numerics.objective_evals", "count");
    ("numerics.deriv_ad", "count");
    ("numerics.deriv_fd", "count");
    ("numerics.continuation.steps", "count");
    ("numerics.continuation.accept_ratio", "ratio");
    ("numerics.continuation.corrector_iters", "count");
    ("numerics.continuation.fallbacks", "count");
    ("numerics.solver.retries", "count");
    ("core.nash.solves", "count");
    ("core.nash.sweeps_per_solve", "count");
    ("core.nash.max_kkt_residual", "ratio");
    ("game.best_response.calls", "count");
    ("experiments.policy_sweep_s", "s");
    ("experiments.capacity_s", "s");
    ("experiments.duopoly_s", "s");
    ("experiments.ablation_s", "s");
    ("service.solve_ms_p50", "ms");
    ("service.solve_ms_p99", "ms");
    ("service.overhead_ms_p50", "ms");
    ("service.proto.encode_us", "us");
    ("service.proto.decode_us", "us");
    ("service.cache.hit_ratio", "ratio");
    ("service.cache.warm_ratio", "ratio");
    ("service.cache.cold_ratio", "ratio");
    ("service.cache.evictions", "count");
    ("service.requests.degraded", "count");
    ("service.requests.shed", "count");
    ("runner.watchdog_aborts", "count");
    ("parallel.batches", "count");
    ("parallel.tasks", "count");
    ("obs.trace_overhead", "ratio");
    ("obs.trace_dropped", "count");
    ("host.ref_ms", "ms");
    ("host.raw_pass_s", "s");
    ("host.raw_rtt_p50_ms", "ms");
    ("experiments.self_ms", "ms");
    ("core.self_ms", "ms");
    ("game.self_ms", "ms");
    ("econ.self_ms", "ms");
    ("service.self_ms", "ms");
    ("service.daemon_wait_ms", "ms");
  ]

let complete_layers measured =
  List.iter
    (fun mt ->
      match List.assoc_opt mt.name layer_spec with
      | Some u when u = mt.unit_ -> ()
      | _ -> fail "per-layer metric %s (%s) is not in layer_spec" mt.name mt.unit_)
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun mt -> mt.name = name) measured with
      | Some mt -> mt
      | None -> metric ~samples:0 name unit_ 0.)
    layer_spec

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let daemon = ref "" and out = ref ".perfbench" and is_ready = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W sweep | serve-warm | serve-cold");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--daemon", Arg.Set_string daemon, "PATH the subsidization executable");
      ("--out", Arg.Set_string out, "DIR scratch and trace directory");
      ("--ready", Arg.Set is_ready, " set-up child mode");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --daemon PATH";
  if !is_ready then ready ();
  at_exit kill_live;
  let trace = !trace = 1 in
  let o =
    match !workload with
    | "sweep" -> run_sweep ~seed:!seed ~seconds:!seconds ~trace ~out:!out
    | ("serve-warm" | "serve-cold") as w ->
      if !daemon = "" || not (Sys.file_exists !daemon) then fail "--daemon must name the built executable";
      run_serve ~cold:(w = "serve-cold") ~seed:!seed ~seconds:!seconds ~trace ~exe:!daemon ~out:!out
    | w -> fail "unknown workload %S" w
  in
  if List.map (fun mt -> mt.name) o.e2e <> e2e_names then fail "end-to-end metrics out of order";
  let layers = if trace then complete_layers o.layers else [] in
  let shown = if trace then layers else o.e2e in
  List.iter
    (fun mt -> Printf.printf "# %-40s %16.6f %-6s n=%d\n" mt.name mt.value mt.unit_ mt.samples)
    (o.e2e @ layers);
  Printf.printf "# fail_ratio %.6f (%d failed of %d attempted)\n"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    o.failed o.attempted;
  List.iter (fun p -> Printf.printf "# problem: %s\n" p) o.problems;
  let correct = o.failed = 0 && o.problems = [] in
  let json =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int o.attempted));
        ("failed", Json.Num (float_of_int o.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun mt -> (mt.name, Json.Obj [ ("value", Json.Num mt.value); ("unit", Json.Str mt.unit_) ]))
               shown) );
      ]
  in
  print_endline (Json.to_string json);
  exit (if correct then 0 else 1)
