module Rng = Hypart_rng.Rng

type profile = { name : string; cells : int; nets : int; pins : int }

(* Published ISPD98 statistics (modules / nets / pins), per Alpert,
   "The ISPD98 Circuit Benchmark Suite", ISPD 1998. *)
let profiles =
  [
    { name = "ibm01"; cells = 12752; nets = 14111; pins = 50566 };
    { name = "ibm02"; cells = 19601; nets = 19584; pins = 81199 };
    { name = "ibm03"; cells = 23136; nets = 27401; pins = 93573 };
    { name = "ibm04"; cells = 27507; nets = 31970; pins = 105859 };
    { name = "ibm05"; cells = 29347; nets = 28446; pins = 126308 };
    { name = "ibm06"; cells = 32498; nets = 34826; pins = 128182 };
    { name = "ibm07"; cells = 45926; nets = 48117; pins = 175639 };
    { name = "ibm08"; cells = 51309; nets = 50513; pins = 204890 };
    { name = "ibm09"; cells = 53395; nets = 60902; pins = 222088 };
    { name = "ibm10"; cells = 69429; nets = 75196; pins = 297567 };
    { name = "ibm11"; cells = 70558; nets = 81454; pins = 280786 };
    { name = "ibm12"; cells = 71076; nets = 77240; pins = 317760 };
    { name = "ibm13"; cells = 84199; nets = 99666; pins = 357075 };
    { name = "ibm14"; cells = 147605; nets = 152772; pins = 546816 };
    { name = "ibm15"; cells = 161570; nets = 186608; pins = 715823 };
    { name = "ibm16"; cells = 183484; nets = 190048; pins = 778823 };
    { name = "ibm17"; cells = 185495; nets = 189581; pins = 860036 };
    { name = "ibm18"; cells = 210613; nets = 201920; pins = 819697 };
  ]

let strip_alias name =
  let n = String.length name in
  if n > 1 && name.[n - 1] = 's' then String.sub name 0 (n - 1) else name

let find name =
  let base = strip_alias name in
  match List.find_opt (fun p -> p.name = base || p.name = name) profiles with
  | Some p -> p
  | None -> raise Not_found

let seed_of_name name =
  (* Stable string hash so ibm01s is the same instance everywhere. *)
  let h = ref 5381 in
  String.iter (fun c -> h := (!h * 33) lxor Char.code c) name;
  !h land max_int

let params_of ?(scale = 1.0) ?seed name =
  if scale <= 0.0 then invalid_arg "Ibm_suite.instance: scale must be positive";
  let p = find name in
  let seed = match seed with Some s -> s | None -> seed_of_name p.name in
  let shrink x = max 16 (int_of_float (float_of_int x /. scale)) in
  let params =
    Generator.default_params ~num_cells:(shrink p.cells) ~num_nets:(shrink p.nets)
      ~num_pins:(shrink p.pins)
  in
  (seed, params)

let cells ?scale name = (snd (params_of ?scale name)).Generator.num_cells

let instance ?scale ?seed name =
  let seed, params = params_of ?scale ?seed name in
  Generator.generate (Rng.create seed) params

let emit_instance ?scale ?seed name oc =
  let seed, params = params_of ?scale ?seed name in
  Generator.emit_hgr (Rng.create seed) params oc

let names_small = [ "ibm01"; "ibm02"; "ibm03" ]

let names_eval =
  [ "ibm01"; "ibm02"; "ibm03"; "ibm04"; "ibm05"; "ibm06"; "ibm10"; "ibm14"; "ibm18" ]
