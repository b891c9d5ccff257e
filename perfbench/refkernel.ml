(* The host-speed reference: a fixed unit of CPU work that calls nothing
   in the repository, timed between slices of the measured work.

   On a shared virtual machine the CPU runs fast and slow in phases that
   last from seconds to minutes, and those phases move every wall-clock
   number together. Timing this kernel next to the work and scaling the
   work's seconds by [nominal_s / measured] turns them into seconds at
   the host's nominal speed.

   The kernel mixes the kinds of work the solvers and the wire protocol
   do, in about equal shares of time: a float/exp loop that allocates
   nothing, a loop of short-lived allocations that only the minor heap
   sees, float printing and parsing, and a branchy integer loop. *)

let float_iters = 16_000
let alloc_iters = 6_000
let text_iters = 250
let branch_iters = 1_500

let float_part n =
  let x = ref 0.3 and acc = ref 0. in
  for _ = 1 to n do
    x := Float.rem ((!x *. 1.37) +. 0.11) 4.;
    acc := !acc +. exp (-. !x)
  done;
  !acc

let alloc_part n =
  let acc = ref 0. in
  for i = 1 to n do
    let xs = [ float_of_int i; float_of_int (i + 1); float_of_int (i + 2) ] in
    let a = Array.make 5 (float_of_int i) in
    acc := !acc +. List.fold_left ( +. ) 0. xs +. a.(i mod 5)
  done;
  !acc

let text_part n =
  let b = Buffer.create 4096 in
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "%.17g," (float_of_int i *. 1.1))
  done;
  List.fold_left
    (fun acc s -> if s = "" then acc else acc +. float_of_string s)
    0.
    (String.split_on_char ',' (Buffer.contents b))

(* Collatz trajectory lengths: data-dependent branches *)
let branch_part n =
  let steps = ref 0 in
  for i = 1 to n do
    let x = ref (i lor 1) in
    while !x > 1 do
      x := if !x land 1 = 0 then !x lsr 1 else (3 * !x) + 1;
      incr steps
    done
  done;
  float_of_int !steps

let sink = ref 0.

let run () =
  sink :=
    !sink +. float_part float_iters +. alloc_part alloc_iters +. text_part text_iters
    +. branch_part branch_iters

let slice () =
  let t0 = Unix.gettimeofday () in
  run ();
  Unix.gettimeofday () -. t0

(* One slice at the host's nominal speed: a constant, never
   re-measured per run, so normalized numbers from different runs and
   commits share one scale. *)
let nominal_s = 1.0e-3

(* [raw] seconds measured while a slice took [ref_s] seconds, expressed
   at the nominal speed. The ratio is formed first so that a slice that
   took exactly [nominal_s] leaves [raw] bit-for-bit unchanged. *)
let normalize ~ref_s raw = raw *. (nominal_s /. ref_s)
