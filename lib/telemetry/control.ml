let metrics = Atomic.make false
let spans = Atomic.make false

let enable () =
  Atomic.set metrics true;
  Atomic.set spans true

let enable_metrics () = Atomic.set metrics true

let disable () =
  Atomic.set metrics false;
  Atomic.set spans false

let is_enabled () = Atomic.get metrics
let spans_enabled () = Atomic.get spans

let with_enabled f =
  let m = Atomic.get metrics and s = Atomic.get spans in
  enable ();
  Fun.protect
    ~finally:(fun () ->
      Atomic.set metrics m;
      Atomic.set spans s)
    f
