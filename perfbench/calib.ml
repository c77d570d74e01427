(* Reference-normalized time.

   On a shared machine the speed of a core drifts by 30-45% in phases of
   five to twenty seconds (other tenants, frequency changes).  That
   drift swamps any change to dmc itself, and medians within one run
   cannot remove a phase that covers the run.  So every duration the
   end-to-end metrics report is normalized: it is multiplied by
   [nominal / r], where [r] is the wall clock of a fixed reference block
   (its mean over the CPUs the runner may use) run next to it
   (bracketing a batch operation or a daemon lifetime, at most [period]
   seconds before a set-up spawn), and [nominal] is
   that block's duration on the 2-core bench VM.  The block is the
   benchmark's own code and allocates and hashes like the engines do,
   so a change to dmc moves the figures and a change in machine speed
   mostly does not.  Raw durations are logged next to them. *)

let nominal = 0.05
let period = 0.5

(* Deterministic work: boxed inserts into a growing hash table. *)
let block () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 120_000 do
    let k = (i * 7919) land 0xfffff in
    Hashtbl.replace h k (i, k);
    acc := !acc + k
  done;
  !acc + Hashtbl.length h

let time_block () =
  let t0 = Proc.now () in
  ignore (Sys.opaque_identity (block ()));
  Proc.now () -. t0

(* The cores slow down independently.  When the runner may use several
   CPUs, and so may the commands it measures, the block runs once pinned
   to each and the result is the mean; the runner's CPU set is restored
   afterwards. *)
let measure () =
  match Proc.allowed_cpus () with
  | [||] | [| _ |] -> time_block ()
  | cpus ->
      let times = Array.map (fun c -> ignore (Proc.set_cpus [| c |]); time_block ()) cpus in
      ignore (Proc.set_cpus cpus);
      Array.fold_left ( +. ) 0. times /. float_of_int (Array.length times)

let factor = ref 1.
let last = ref neg_infinity

(* The current factor, re-measuring the reference when the last
   measurement is older than [period]. *)
let current () =
  if Proc.now () -. !last > period then begin
    factor := nominal /. measure ();
    last := Proc.now ()
  end;
  !factor
