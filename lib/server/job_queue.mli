(** A bounded MPMC queue with explicit backpressure — the admission
    control point of the daemon.

    [try_push] never blocks: a full queue refuses the element, and the
    caller turns that refusal into a [503 Retry-After] instead of
    letting latency grow without bound.  [pop] blocks workers until an
    element or {!close}; after close, producers are refused and
    consumers drain what remains — exactly the SIGTERM semantics
    ("stop admitting, finish what was admitted"). *)

type 'a t

val create : ?on_length:(int -> unit) -> capacity:int -> unit -> 'a t
(** [on_length] sees the new length after every push and pop, under the
    queue's lock, so a depth gauge it feeds is never stale or reordered.
    @raise Invalid_argument when [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed. *)

val pop : 'a t -> 'a option
(** Block until an element is available ([Some]) or the queue is
    closed and drained ([None]). *)

val close : 'a t -> unit
(** Refuse further pushes and wake every blocked consumer; idempotent. *)

val length : 'a t -> int
