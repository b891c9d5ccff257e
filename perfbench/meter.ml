(* A timeline of measured work interleaved with reference slices.

   Work is cut into pieces at every slice and at every op boundary; each
   piece remembers how many slices preceded it, i.e. which segment
   between two slices it ran in. When the run ends, every segment gets
   a smoothed reference time (the median of the slices nearest to it) and an op's normalized duration is the sum of its
   pieces, each scaled by its own segment's reference. A phase change
   in the middle of an op therefore weighs each side by its share.
   Slice time itself belongs to no op. *)

type op = { mutable pieces : (float * int) list; mutable raw : float }

type t = {
  clock : unit -> float;
  slice : unit -> float;
  mutable refs : float list;  (** newest first *)
  mutable n_refs : int;
  mutable last_cut : float;
  mutable last_slice : float;
  mutable open_ops : op list;
  mutable smooth : float array option;  (** per segment; set by {!finish} *)
}

let cut m =
  let now = m.clock () in
  let dt = Float.max 0. (now -. m.last_cut) in
  if dt > 0. then
    List.iter
      (fun op ->
        op.pieces <- (dt, m.n_refs) :: op.pieces;
        op.raw <- op.raw +. dt)
      m.open_ops;
  m.last_cut <- now

let sample m =
  cut m;
  let s = m.slice () in
  m.refs <- s :: m.refs;
  m.n_refs <- m.n_refs + 1;
  let now = m.clock () in
  m.last_cut <- now;
  m.last_slice <- now

(* a slice every 25 ms of work; each segment's reference is the median
   of the 2 * 3 slices nearest to it *)
let period = 0.025
let window = 3

let create ?(clock = Unix.gettimeofday) ?(slice = Refkernel.slice) () =
  let now = clock () in
  let m =
    {
      clock;
      slice;
      refs = [];
      n_refs = 0;
      last_cut = now;
      last_slice = now;
      open_ops = [];
      smooth = None;
    }
  in
  sample m;
  m

let tick m = if m.clock () -. m.last_slice >= period then sample m

let start m =
  cut m;
  let op = { pieces = []; raw = 0. } in
  m.open_ops <- op :: m.open_ops;
  op

let stop m op =
  cut m;
  m.open_ops <- List.filter (fun o -> o != op) m.open_ops

let measure m f =
  let op = start m in
  let result = Fun.protect ~finally:(fun () -> stop m op) f in
  (result, op)

let median_sorted a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let median values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  median_sorted a

let finish m =
  sample m;
  let refs = Array.of_list (List.rev m.refs) in
  let n = Array.length refs in
  (* segment k runs between slice k-1 and slice k *)
  let smooth =
    Array.init (n + 1) (fun k ->
        let lo = max 0 (k - window) and hi = min (n - 1) (k + window - 1) in
        let near = Array.sub refs lo (hi - lo + 1) in
        Array.sort Float.compare near;
        median_sorted near)
  in
  m.smooth <- Some smooth

let smoothed m =
  match m.smooth with
  | Some s -> s
  | None -> invalid_arg "Meter: finish the meter before reading normalized times"

(* Work timed outside any op, such as one request between two ticks,
   runs in a single segment: the caller records [segment m] with its raw
   seconds and scales them by [scale m k] once the run is finished. *)
let segment m = m.n_refs
let scale m k = Refkernel.normalize ~ref_s:(smoothed m).(k) 1.

let normalized m op =
  let smooth = smoothed m in
  List.fold_left
    (fun acc (dt, k) -> acc +. Refkernel.normalize ~ref_s:smooth.(k) dt)
    0. op.pieces

(* normalized over raw: the speed factor in force over the op *)
let factor m op = if op.raw > 0. then normalized m op /. op.raw else 1.

let raw op = op.raw
let slices m = m.n_refs
let ref_median m = median m.refs
