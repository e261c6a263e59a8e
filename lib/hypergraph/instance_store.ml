exception Format_error of string

let fail path fmt =
  Printf.ksprintf (fun m -> raise (Format_error (path ^ ": " ^ m))) fmt

let magic = "HGRB"
let version = 1
let header_size = 64

(* Byte-order mark.  Sections are raw int32 in host byte order (little
   endian on every supported target); the mark lets a loader on a
   foreign-endian machine reject the file instead of silently reading
   garbage. *)
let bom = 0x01020304l

(* Header layout (all offsets in bytes):
     0  magic "HGRB"
     4  byte-order mark 0x01020304, host order
     8  version, u32 LE
    12  reserved (zero)
    16  instance fingerprint, 16 ASCII hex chars
    32  num_vertices, u64 LE
    40  num_edges, u64 LE
    48  num_pins, u64 LE
    56  reserved (zero)
   Sections follow, each raw int32:
    edge_offset[ne+1], edge_pins[pins], vertex_offset[nv+1],
    vertex_edges[pins], vertex_weight[nv], edge_weight[ne].
   Both incidence directions are stored so loading performs no CSR
   construction at all. *)

let payload_elems ~nv ~ne ~pins = ne + 1 + pins + (nv + 1) + pins + nv + ne

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let encode_header ~fingerprint ~nv ~ne ~pins =
  let b = Bytes.make header_size '\000' in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_ne b 4 bom;
  Bytes.set_int32_le b 8 (Int32.of_int version);
  Bytes.blit_string fingerprint 0 b 16 16;
  Bytes.set_int64_le b 32 (Int64.of_int nv);
  Bytes.set_int64_le b 40 (Int64.of_int ne);
  Bytes.set_int64_le b 48 (Int64.of_int pins);
  b

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

let map_payload fd ~shared ~elems =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int header_size) Bigarray.Int32
       Bigarray.c_layout shared [| elems |])

let save path ~fingerprint h =
  if String.length fingerprint <> 16 then
    invalid_arg "Instance_store.save: fingerprint must be 16 hex chars";
  let nv = Hypergraph.num_vertices h
  and ne = Hypergraph.num_edges h
  and pins = Hypergraph.num_pins h in
  let elems = payload_elems ~nv ~ne ~pins in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     let header = encode_header ~fingerprint ~nv ~ne ~pins in
     write_all fd header 0 header_size;
     (* size the file, then blit the CSR vectors straight into the
        mapping — no serialization buffer between the hypergraph and
        the page cache *)
     Unix.ftruncate fd (header_size + (4 * elems));
     let map = map_payload fd ~shared:true ~elems in
     let pos = ref 0 in
     let section (a : Hypergraph.i32) =
       let n = Bigarray.Array1.dim a in
       Bigarray.Array1.blit a (Bigarray.Array1.sub map !pos n);
       pos := !pos + n
     in
     section (Hypergraph.Csr.edge_offset h);
     section (Hypergraph.Csr.edge_pins h);
     section (Hypergraph.Csr.vertex_offset h);
     section (Hypergraph.Csr.vertex_edges h);
     section (Hypergraph.Csr.vertex_weight h);
     section (Hypergraph.Csr.edge_weight h);
     Unix.close fd
   with e ->
     (try Unix.close fd with _ -> ());
     (try Sys.remove tmp with _ -> ());
     raise e);
  Sys.rename tmp path

let rec read_some fd b pos len =
  if len = 0 then pos
  else
    match Unix.read fd b pos len with
    | 0 -> pos
    | n -> read_some fd b (pos + n) (len - n)

(* [header] starts with the input's first [header_size] bytes, or is
   all of a shorter input *)
let decode_header source header =
  let got = String.length header in
  if got < header_size then
    fail source "truncated header: %d bytes, need %d" got header_size;
  if String.sub header 0 4 <> magic then
    fail source "bad magic: not a packed instance file";
  let file_bom = String.get_int32_ne header 4 in
  if file_bom <> bom then
    if file_bom = 0x04030201l (* the mark byte-swapped *) then
      fail source "byte-order mismatch: file written on a foreign-endian host"
    else fail source "bad byte-order mark";
  let file_version = Int32.to_int (String.get_int32_le header 8) in
  if file_version <> version then
    fail source "unsupported version %d (this build reads version %d)"
      file_version version;
  let fingerprint = String.sub header 16 16 in
  String.iter
    (fun c -> if not (is_hex c) then fail source "corrupt fingerprint field")
    fingerprint;
  (* every count indexes the int32 CSR, so a corrupt one is caught here
     and the expected size below cannot overflow *)
  let field off name =
    let v = String.get_int64_le header off in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int32 Int32.max_int) > 0
    then fail source "corrupt %s count" name;
    Int64.to_int v
  in
  let nv = field 32 "vertex" in
  let ne = field 40 "edge" in
  let pins = field 48 "pin" in
  (fingerprint, nv, ne, pins)

(* the payload element count, once the input's byte size is known to
   match the header's counts *)
let check_size source ~size ~nv ~ne ~pins =
  let elems = payload_elems ~nv ~ne ~pins in
  let expected = header_size + (4 * elems) in
  if size < expected then
    fail source "truncated sections: %d bytes, need %d" size expected;
  if size > expected then
    fail source "trailing garbage: %d bytes, expected %d" size expected;
  elems

(* slice the payload into the six sections and validate the CSR *)
let of_payload source payload ~nv ~ne ~pins fingerprint =
  let pos = ref 0 in
  let section n =
    let s = Bigarray.Array1.sub payload !pos n in
    pos := !pos + n;
    s
  in
  let edge_offset = section (ne + 1) in
  let edge_pins = section pins in
  let vertex_offset = section (nv + 1) in
  let vertex_edges = section pins in
  let vertex_weight = section nv in
  let edge_weight = section ne in
  match
    Hypergraph.of_mapped_csr ~num_vertices:nv ~edge_offset ~edge_pins
      ~vertex_offset ~vertex_edges ~vertex_weight ~edge_weight
  with
  | h -> (h, fingerprint)
  | exception Invalid_argument msg -> fail source "%s" msg

let read_header path fd =
  let b = Bytes.create header_size in
  let got = read_some fd b 0 header_size in
  decode_header path (Bytes.sub_string b 0 got)

let with_readonly path f =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) -> fail path "%s" (Unix.error_message e)
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let read_fingerprint path =
  with_readonly path (fun fd ->
      let fingerprint, _, _, _ = read_header path fd in
      fingerprint)

let load path =
  with_readonly path @@ fun fd ->
  let fingerprint, nv, ne, pins = read_header path fd in
  let size = (Unix.fstat fd).Unix.st_size in
  let elems = check_size path ~size ~nv ~ne ~pins in
  of_payload path (map_payload fd ~shared:false ~elems) ~nv ~ne ~pins fingerprint

let of_bytes ~source b len =
  if len < 0 || len > Bytes.length b then invalid_arg "Instance_store.of_bytes";
  let fingerprint, nv, ne, pins =
    decode_header source (Bytes.sub_string b 0 (min len header_size))
  in
  let elems = check_size source ~size:len ~nv ~ne ~pins in
  let payload = Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout elems in
  for i = 0 to elems - 1 do
    Bigarray.Array1.unsafe_set payload i
      (Bytes.get_int32_ne b (header_size + (4 * i)))
  done;
  of_payload source payload ~nv ~ne ~pins fingerprint
