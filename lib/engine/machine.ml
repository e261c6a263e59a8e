external thread_cpu_seconds : unit -> (float[@unboxed])
  = "hypart_thread_cpu_seconds" "hypart_thread_cpu_seconds_unboxed"
[@@noalloc]

(* CPU seconds of the domains this one spawned and joined *)
let joined = Domain.DLS.new_key (fun () -> ref 0.0)

let charge_joined seconds =
  let r = Domain.DLS.get joined in
  r := !r +. seconds

let domain_cpu () = thread_cpu_seconds () +. !(Domain.DLS.get joined)

let cpu_time f =
  let t0 = domain_cpu () in
  let r = f () in
  (r, domain_cpu () -. t0)

let calibrate () =
  let iterations = 20_000_000 in
  let work () =
    let acc = ref 0 and x = ref 1.0 in
    for i = 1 to iterations do
      acc := (!acc + i) land 0xFFFFFF;
      x := !x +. (1.0 /. float_of_int (1 + (!acc land 1023)))
    done;
    ignore !x;
    !acc
  in
  let _, dt = cpu_time work in
  if dt <= 0.0 then infinity else float_of_int iterations /. dt /. 1e6

let factor = ref 1.0
let normalization_factor () = !factor

let set_normalization_factor f =
  if f <= 0.0 then invalid_arg "Machine.set_normalization_factor: must be positive";
  factor := f

let normalize seconds = seconds *. !factor
