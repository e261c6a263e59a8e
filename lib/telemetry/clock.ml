let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
