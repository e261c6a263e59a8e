exception Cancelled

(* no hook installed is the common case; [none] keeps the polling cost
   of an idle domain to one DLS read and one physical comparison *)
let none : unit -> bool = fun () -> false
let key : (unit -> bool) Domain.DLS.key = Domain.DLS.new_key (fun () -> none)

let with_hook hook f =
  let previous = Domain.DLS.get key in
  Domain.DLS.set key hook;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key previous) f

let current () = Domain.DLS.get key

let cancelled () =
  let hook = Domain.DLS.get key in
  hook != none && hook ()

let check () = if cancelled () then raise Cancelled
