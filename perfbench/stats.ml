(* Raw samples and exact order statistics over them — no histogram
   buckets, so a change of a few percent stays visible. Each sample
   keeps the time it was taken at, so a run can be cut into windows
   and each window's samples treated on their own. *)

type t = { mutable a : float array; mutable at : float array; mutable n : int }

let create () = { a = Array.make 256 0.0; at = Array.make 256 0.0; n = 0 }

let add ?(at = 0.0) t x =
  if t.n = Array.length t.a then begin
    let grow a = Array.append a (Array.make t.n 0.0) in
    t.a <- grow t.a;
    t.at <- grow t.at
  end;
  t.a.(t.n) <- x;
  t.at.(t.n) <- at;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of a sorted sample: the smallest sample with
   at least [p] of the samples at or below it. *)
let rank s p =
  let n = Array.length s in
  if n = 0 then Float.nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let percentile t p = rank (sorted t) p

(* Mean of the middle 90% of the samples: unlike the median it moves in
   proportion when the share of fast and slow operations shifts, rather
   than jumping from one mode to the other, and one stalled operation
   does not move it. *)
let trimmed_mean t =
  let s = sorted t in
  let cut = Array.length s / 20 in
  let mid = Array.sub s cut (Array.length s - (2 * cut)) in
  if Array.length mid = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 mid /. float_of_int (Array.length mid)
let median t = percentile t 0.5

let median_of l =
  let t = create () in
  List.iter (add t) l;
  median t

let merge ts =
  let r = create () in
  List.iter (fun t -> for i = 0 to t.n - 1 do add ~at:t.at.(i) r t.a.(i) done) ts;
  r

(* Operations per second over the samples' own span: (n - 1) intervals
   between the first and the last start, so short windows are not
   quantized to 1/length. *)
let rate t =
  if t.n < 2 then Float.nan
  else
    let lo = ref infinity and hi = ref neg_infinity in
    for i = 0 to t.n - 1 do
      lo := Float.min !lo t.at.(i);
      hi := Float.max !hi t.at.(i)
    done;
    float_of_int (t.n - 1) /. (!hi -. !lo)

(* The samples [f ~at x] keeps, as it maps them. *)
let map t f =
  let r = create () in
  for i = 0 to t.n - 1 do
    match f ~at:t.at.(i) t.a.(i) with Some x -> add ~at:t.at.(i) r x | None -> ()
  done;
  r
