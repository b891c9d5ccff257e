(* Self-test of the host-speed normalization, run before every benchmark
   run:

     selftest.exe perfbench/dune

   1. Normalizing against a reference that took exactly the nominal
      time is the identity.
   2. A synthetic 2x host slowdown, applied to the work and to the
      reference slices alike, cancels out of the normalized times.
   3. A speed change in the middle of a run is charged segment by
      segment: each op normalizes to its nominal length up to the
      smoothing window's error at the change.
   4. The reference library links nothing from lib/: its dune stanza
      names no library but [unix], and this executable links only it.

   Exit code 0 when all of them hold. *)

open Perfbench_ref

let failures = ref 0

let check name ok =
  Printf.printf "# selftest %-28s %s\n" name (if ok then "ok" else "FAILED");
  if not ok then incr failures

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1. (Float.abs b)

let identity () =
  List.for_all
    (fun raw -> Float.equal (Refkernel.normalize ~ref_s:Refkernel.nominal_s raw) raw)
    [ 0.; 1e-6; 0.0123; 2.5; 1e3 ]

(* a fake clock: work and slices advance it, [speed] times slower than
   nominal; ops of unequal length, ticks in between as in the real runs.
   Slices come every [period] of wall time, so the slower host takes
   more of them. *)
let synthetic speed =
  let now = ref 100. in
  let clock () = !now in
  let slice () =
    let d = Refkernel.nominal_s *. speed in
    now := !now +. d;
    d
  in
  let m = Meter.create ~clock ~slice () in
  let ops =
    List.init 40 (fun i ->
        let op = Meter.start m in
        for _ = 1 to 7 do
          now := !now +. ((0.004 +. (0.001 *. float_of_int (i mod 3))) *. speed);
          Meter.tick m
        done;
        Meter.stop m op;
        op)
  in
  Meter.finish m;
  (List.map (Meter.normalized m) ops, List.map Meter.raw ops, Meter.slices m)

let slowdown () =
  let base, raw1, slices1 = synthetic 1. in
  let slow, raw2, slices2 = synthetic 2. in
  slices1 > 2 && slices2 > slices1
  && List.for_all2 (fun r1 r2 -> close r2 (2. *. r1)) raw1 raw2
  && List.for_all2 close base raw1
  && List.for_all2 close slow base

(* A host that runs 1x until [change] and 2x after it, with ops of
   unequal length running across the change. Each segment's reference
   is the median of the 6 slices nearest to it, so only the one segment
   whose slices straddle the change (3 at 1x, 3 at 2x: reference 1.5x)
   is scaled wrongly, each of its raw seconds by at most a third. Every
   op must therefore normalize to its nominal length, give or take a
   third of the raw time it spent in that segment; a segment or window
   off by one misnormalizes a neighbouring segment and fails. *)
let phase_change () =
  let change = 100.6 in
  let now = ref 100. in
  let speed () = if !now < change then 1. else 2. in
  let slice_starts = ref [] in
  let slice () =
    slice_starts := !now :: !slice_starts;
    let d = Refkernel.nominal_s *. speed () in
    now := !now +. d;
    d
  in
  let m = Meter.create ~clock:(fun () -> !now) ~slice () in
  (* each op with its steps: (start, raw, nominal) *)
  let ops =
    List.init 40 (fun i ->
        let op = Meter.start m in
        let steps =
          List.init 7 (fun _ ->
              let nominal = 0.004 +. (0.001 *. float_of_int (i mod 3)) in
              let step = (!now, nominal *. speed (), nominal) in
              now := !now +. (nominal *. speed ());
              Meter.tick m;
              step)
        in
        Meter.stop m op;
        (op, steps))
  in
  Meter.finish m;
  (* the straddling segment: from the end of the last slice begun
     before the change to the start of the first one begun after it *)
  let starts = !slice_starts in
  let lo =
    List.fold_left Float.max neg_infinity (List.filter (fun t -> t < change) starts)
    +. Refkernel.nominal_s
  and hi = List.fold_left Float.min infinity (List.filter (fun t -> t >= change) starts) in
  let spans_change (_, steps) =
    List.exists (fun (t, _, _) -> t < change) steps && List.exists (fun (t, _, _) -> t >= change) steps
  in
  let exact = ref 0 in
  List.exists spans_change ops
  && List.for_all
       (fun (op, steps) ->
         let nominal = List.fold_left (fun acc (_, _, n) -> acc +. n) 0. steps in
         let allowed =
           List.fold_left
             (fun acc (t, raw, _) -> if lo <= t && t < hi then acc +. (raw /. 3.) else acc)
             0. steps
         in
         if allowed = 0. then incr exact;
         Float.abs (Meter.normalized m op -. nominal) <= allowed +. 1e-9)
       ops
  && !exact >= 30

(* the perfbench_ref stanza must list exactly [(libraries unix)] *)
let reference_links_nothing dune_file =
  let lines = In_channel.with_open_text dune_file In_channel.input_lines in
  (* top-level stanzas, one string each: a stanza starts at a line that opens with "(" *)
  let stanzas =
    List.fold_left
      (fun acc line ->
        match acc with
        | stanza :: rest when not (String.starts_with ~prefix:"(" line) ->
          (stanza ^ " " ^ String.trim line) :: rest
        | _ -> String.trim line :: acc)
      [] lines
  in
  let rec count sub s i =
    match String.index_from_opt s i sub.[0] with
    | Some j when j + String.length sub <= String.length s ->
      (if String.sub s j (String.length sub) = sub then 1 else 0) + count sub s (j + 1)
    | _ -> 0
  in
  match List.filter (fun s -> count "(name perfbench_ref)" s 0 = 1) stanzas with
  | [ stanza ] -> count "(libraries" stanza 0 = 1 && count "(libraries unix)" stanza 0 = 1
  | _ -> false

let () =
  let dune_file = if Array.length Sys.argv > 1 then Sys.argv.(1) else "perfbench/dune" in
  check "normalize-identity" (identity ());
  check "2x-slowdown-cancels" (slowdown ());
  check "phase-change-per-segment" (phase_change ());
  check "reference-links-no-lib" (reference_links_nothing dune_file);
  check "reference-kernel-runs" (Refkernel.slice () > 0.);
  exit (if !failures = 0 then 0 else 1)
