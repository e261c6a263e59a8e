type 'a t = {
  items : 'a Queue.t;
  capacity : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  on_length : int -> unit;
}

let create ?(on_length = ignore) ~capacity () =
  if capacity < 1 then invalid_arg "Job_queue.create: capacity must be >= 1";
  {
    items = Queue.create ();
    capacity;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
    on_length;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let try_push t x =
  with_lock t (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.push x t.items;
        t.on_length (Queue.length t.items);
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  with_lock t (fun () ->
      while Queue.is_empty t.items && not t.closed do
        Condition.wait t.nonempty t.mutex
      done;
      if Queue.is_empty t.items then None
      else begin
        let x = Queue.pop t.items in
        t.on_length (Queue.length t.items);
        Some x
      end)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = with_lock t (fun () -> Queue.length t.items)
