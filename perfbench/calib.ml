(* Host-speed calibration. The benchmark runs on a few vCPUs of a shared
   host whose speed drifts by a third or more over minutes, and that
   drift moves every timing at once. So between the measured windows of
   a run the load pauses and a fixed kernel runs in the benchmark
   process; each window's timings are then scaled to a reference speed
   by the kernel times on either side of it.

   The kernel is self-contained OCaml (string-keyed hash tables, list
   sorting, a balanced map, buffers: allocation and pointer chasing,
   like the program) and calls no library of the repository, so a change
   to the program never changes the yardstick it is measured with. *)

module IntMap = Map.Make (Int)

(* Kernel milliseconds at the reference speed: a scaled timing reads as
   the time it would have taken on a host where the kernel takes this
   long. *)
let reference_ms = 15.0

let reps = 5

let kernel () =
  let n = 12_000 in
  let h = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    Hashtbl.replace h ("key" ^ string_of_int (i * 7919)) i
  done;
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + Hashtbl.find h ("key" ^ string_of_int (i * 7919))
  done;
  let l = List.init n (fun i -> ((i * 1103515245) + 12345) land 0xFFFFF) in
  let sorted = List.sort compare l in
  let m = List.fold_left (fun m x -> IntMap.add x (x * 3) m) IntMap.empty sorted in
  let b = Buffer.create 16 in
  IntMap.iter (fun k v -> if k land 7 = 0 then Buffer.add_string b (string_of_int v)) m;
  !s + IntMap.cardinal m + Buffer.length b

let time_ms f =
  let t0 = Child.now () in
  ignore (Sys.opaque_identity (f ()));
  (Child.now () -. t0) *. 1000.0

(* One calibration: a warm-up kernel, then [reps] timed ones, whose
   times in ms are added to [t]. *)
let measure ?(reps = reps) t =
  ignore (Sys.opaque_identity (kernel ()));
  for _ = 1 to reps do
    Stats.add t (time_ms kernel)
  done
