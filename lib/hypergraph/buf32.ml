module A1 = Bigarray.Array1

type t = { mutable data : Hypergraph.i32; mutable len : int }

let create capacity =
  { data = A1.create Bigarray.Int32 Bigarray.c_layout (max capacity 16); len = 0 }

let length b = b.len

let grow b needed =
  let cap = ref (2 * A1.dim b.data) in
  while needed > !cap do
    cap := 2 * !cap
  done;
  let grown = A1.create Bigarray.Int32 Bigarray.c_layout !cap in
  A1.blit (A1.sub b.data 0 b.len) (A1.sub grown 0 b.len);
  b.data <- grown

let push b x =
  if b.len = A1.dim b.data then grow b (b.len + 1);
  A1.unsafe_set b.data b.len (Int32.of_int x);
  b.len <- b.len + 1

let blit b src off len =
  if b.len + len > A1.dim b.data then grow b (b.len + len);
  A1.blit (A1.sub src off len) (A1.sub b.data b.len len);
  b.len <- b.len + len

let push_ints b src n =
  if b.len + n > A1.dim b.data then grow b (b.len + n);
  for i = 0 to n - 1 do
    A1.unsafe_set b.data (b.len + i) (Int32.of_int src.(i))
  done;
  b.len <- b.len + n

let contents b =
  if A1.dim b.data = b.len then b.data
  else begin
    let exact = A1.create Bigarray.Int32 Bigarray.c_layout b.len in
    A1.blit (A1.sub b.data 0 b.len) exact;
    exact
  end
