(* Bit-identity pins for the multilevel kernels (CLIP populate order,
   contraction, the four matching schemes), for the ECO warm path
   (projection, localization, subproblem extraction, refinement and
   splice) and for the records of recombination, multilevel k-way,
   look-ahead FM, SA, KL and spectral (stats included).

   Each case digests a full assignment (or cluster map), not just a
   cut, on ibm01 at scale 4 — large enough that nets exceed the
   small-net sort paths and CLIP sees a wide gain range, so any change
   in tie order, net order or RNG consumption moves a digest.  The
   expected values were recorded before the kernels were rewritten as
   flat loops and must never be edited to make a change pass. *)

module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Initial = Hypart_partition.Initial
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Matching = Hypart_multilevel.Matching
module Ml = Hypart_multilevel.Ml_partitioner
module Engine = Hypart_engine.Engine
module Ml_engines = Hypart_multilevel.Ml_engines
module Fingerprint = Hypart_lab.Fingerprint
module Delta_gen = Hypart_delta.Delta_gen
module Patch = Hypart_delta.Patch
module Eco = Hypart_delta.Eco
module Fm_engines = Hypart_fm.Fm_engines
module Ml_kway = Hypart_multilevel.Ml_kway
module Kway_fm = Hypart_fm.Kway_fm

let instance = lazy (Suite.instance ~scale:4.0 "ibm01")
let problem () = Problem.make ~tolerance:0.10 (Lazy.force instance)

(* k-way FM is slow at scale 4: the k-way case runs on the scale-16 twin *)
let small_instance = lazy (Suite.instance ~scale:16.0 "ibm01")

(* every tenth vertex fixed, alternating sides *)
let fixed_problem () =
  let h = Lazy.force instance in
  let fixed =
    Array.init (H.num_vertices h) (fun v ->
        if v mod 10 = 0 then v / 10 mod 2 else -1)
  in
  Problem.make ~fixed ~tolerance:0.10 h

let digest_ints a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter
    (fun x ->
      Buffer.add_string b (string_of_int x);
      Buffer.add_char b ',')
    a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let of_result (r : Engine.Result.t) =
  Printf.sprintf "%d:%s" r.Engine.Result.cut
    (digest_ints (Bipartition.assignment r.Engine.Result.solution))

let seeds = [ 1; 2; 3; 4; 5; 6 ]

let per_seed f = String.concat " " (List.map f seeds)

let ml config p seed = of_result (Ml.run ~config (Rng.create seed) p)

let ml_cases =
  [
    ( "ml_clip+vcycle",
      fun () ->
        let p = problem () in
        per_seed (fun seed ->
            let rng = Rng.create seed in
            let r = Ml.run ~config:Ml.ml_clip rng p in
            of_result (Ml.vcycle ~config:Ml.ml_clip rng p r.Engine.Result.solution)) );
    (* V-cycles rarely improve a multilevel start at this size; from a
       flat start they do, so the restricted coarsening is pinned too *)
    ( "vcycle of flat lifo",
      fun () ->
        let p = problem () in
        per_seed (fun seed ->
            let rng = Rng.create seed in
            let r = Fm.run_random_start ~config:Fm_config.strong_lifo rng p in
            of_result (Ml.vcycle ~config:Ml.ml_clip rng p r.Engine.Result.solution)) );
    ("hmetis_like", fun () -> per_seed (ml Ml.hmetis_like (problem ())));
    ("ml_lifo", fun () -> per_seed (ml Ml.ml_lifo (problem ())));
    ( "ml_clip fixed",
      fun () -> per_seed (ml Ml.ml_clip (fixed_problem ())) );
    ( "ml heavy_edge",
      fun () ->
        per_seed (ml { Ml.ml_clip with Ml.scheme = Matching.Heavy_edge } (problem ()))
    );
    ( "ml first_choice",
      fun () ->
        per_seed
          (ml { Ml.ml_clip with Ml.scheme = Matching.First_choice } (problem ()))
    );
    ( "ml hyperedge_coarsening",
      fun () ->
        per_seed
          (ml
             { Ml.ml_lifo with Ml.scheme = Matching.Hyperedge_coarsening }
             (problem ())) );
  ]

let flat insertion () =
  let p = problem () in
  let config = { Fm_config.strong_clip with Fm_config.insertion } in
  per_seed (fun seed ->
      of_result (Fm.run_random_start ~config (Rng.create seed) p))

let flat_cases =
  [
    ("flat clip lifo", flat Fm_config.Lifo);
    ("flat clip fifo", flat Fm_config.Fifo);
    ("flat clip random", flat Fm_config.Random);
  ]

let schemes =
  [
    ("edge_coarsening", Matching.Edge_coarsening);
    ("heavy_edge", Matching.Heavy_edge);
    ("first_choice", Matching.First_choice);
    ("hyperedge_coarsening", Matching.Hyperedge_coarsening);
  ]

let matching scheme () =
  let p = fixed_problem () in
  let h = p.Problem.hypergraph in
  let max_cluster_weight = 4 * H.total_vertex_weight h / H.num_vertices h in
  let parts = Bipartition.assignment (Initial.random (Rng.create 7) p) in
  per_seed (fun seed ->
      let run ?restrict_to_parts () =
        let cluster_of, k =
          Matching.compute ~scheme ~rng:(Rng.create seed) ~max_cluster_weight
            ~fixed:p.Problem.fixed ?restrict_to_parts h
        in
        Printf.sprintf "%d:%s" k (digest_ints cluster_of)
      in
      run () ^ "/" ^ run ~restrict_to_parts:parts ())

let matching_cases =
  List.map (fun (name, s) -> ("matching " ^ name, matching s)) schemes

(* An 8-link chain of stacked 1% deltas, each warm-started by eco_fm
   from the previous link's answer, starting from an mlclip prior.  A
   link digests its mode, free-set size, cut and assignment. *)
let eco_links = 8

let eco_digest (o : Eco.outcome) =
  let r = o.Eco.result in
  Printf.sprintf "%s/%d/%d:%s"
    (match o.Eco.mode with Eco.Warm -> "warm" | Eco.Scratch -> "scratch")
    o.Eco.free_vertices r.Engine.Result.cut
    (digest_ints (Bipartition.assignment r.Engine.Result.solution))

(* each link's patch and prior, and its eco_fm outcome *)
let eco_chain =
  lazy
    (let h = Lazy.force instance in
     let prior =
       Engine.run Ml_engines.mlclip (Rng.create 1)
         (Problem.make ~tolerance:0.02 h)
         None
     in
     let rec go i h prior acc =
       if i = eco_links then List.rev acc
       else begin
         let delta =
           Delta_gen.perturb ~rng:(Rng.create (100 + i)) ~fraction:0.01 h
         in
         let p =
           Patch.apply ~base:h ~base_fingerprint:(Fingerprint.of_instance h)
             delta
         in
         let o =
           Eco.run ~engine:Fm_engines.eco_fm ~scratch:Ml_engines.mlclip
             ~seed:(i + 1) ~prior p
         in
         go (i + 1) p.Patch.hypergraph
           (Bipartition.assignment o.Eco.result.Engine.Result.solution)
           ((p, prior, o) :: acc)
       end
     in
     go 0 h (Bipartition.assignment prior.Engine.Result.solution) [])

let eco_cases =
  [
    ( "eco chain",
      fun () ->
        String.concat " "
          (List.map (fun (_, _, o) -> eco_digest o) (Lazy.force eco_chain)) );
    ( "eco chain eco_ml link",
      fun () ->
        let p, prior, _ = List.nth (Lazy.force eco_chain) 3 in
        eco_digest
          (Eco.run ~engine:Ml_engines.eco_ml ~scratch:Ml_engines.mlclip
             ~seed:4 ~prior p) );
  ]

(* Engine records: cut, assignment and the stats list (names, order
   and values), on three seeds each.  Recorded when FM, look-ahead FM,
   SA, KL, spectral and the multilevel partitioner still had records
   of their own. *)
let few_seeds = [ 1; 2; 3 ]

let digest_stats stats =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.map (fun (n, v) -> Printf.sprintf "%s=%h" n v) stats)))

let of_record cut assignment stats =
  Printf.sprintf "%d:%s:%s" cut (digest_ints assignment) (digest_stats stats)

let of_engine_result (r : Engine.Result.t) =
  of_record r.Engine.Result.cut
    (Bipartition.assignment r.Engine.Result.solution)
    r.Engine.Result.stats

let per_few_seeds f = String.concat " " (List.map f few_seeds)

let engine_case ?(problem = problem) engine () =
  let p = problem () in
  per_few_seeds (fun seed ->
      of_engine_result (Engine.run engine (Rng.create seed) p None))

(* KL is O(n^2) per pair selection: one start takes 0.12 s on the
   scale-64 twin against 7 s at scale 16; spectral runs at scale 16 *)
let tiny_instance = lazy (Suite.instance ~scale:64.0 "ibm01")
let twin_problem instance () = Problem.make ~tolerance:0.10 (Lazy.force instance)

let record_cases =
  [
    ( "recombine of two mlclip parents",
      fun () ->
        let p = problem () in
        per_few_seeds (fun seed ->
            let rng = Rng.create seed in
            let a = Ml.run ~config:Ml.ml_clip rng p in
            let b = Ml.run ~config:Ml.ml_clip rng p in
            of_engine_result
              (Ml.recombine ~config:Ml.ml_clip rng p a.Engine.Result.solution
                 b.Engine.Result.solution)) );
    ( "ml_kway k=4",
      fun () ->
        let h = Lazy.force small_instance in
        per_few_seeds (fun seed ->
            let r = Ml_kway.run ~k:4 (Rng.create seed) h in
            of_record r.Kway_fm.cut r.Kway_fm.part_of r.Kway_fm.stats) );
    ("lookahead engine", engine_case Fm_engines.lookahead);
    ("sa engine", engine_case Hypart_sa.Sa_partitioner.engine);
    ("kl engine", engine_case ~problem:(twin_problem tiny_instance) Hypart_kl.Kl.engine);
    ( "spectral engine",
      engine_case ~problem:(twin_problem small_instance) Hypart_spectral.Spectral.engine );
  ]

let expected =
  [
    ( "ml_clip+vcycle",
      String.concat " "
        [
          "240:70b1d746844d602219be47cab9dbb00c";
          "240:9d87465d6f952ecc97660f5da61b938c";
          "245:90795b545621616a750131ecd54d35c4";
          "240:d9d5ba94da2c28ad4fcb603284a47045";
          "239:c1367eea4b6d8affac7cf866f3bef230";
          "241:2ed1b03c3ca16caa7d52799ae72cece7";
        ] );
    ( "vcycle of flat lifo",
      String.concat " "
        [
          "241:9ab3e644b261eafa9dda6741ed25ce29";
          "248:188e7e4a4a934ae9853c0fa2f415c84f";
          "241:972c2bf39b9025a691efae8ed921a73e";
          "251:1578c5e4f81c934beb8c020bf7fb32ac";
          "251:69907aeaf7bfdd1e76364d7f73c374da";
          "241:e9ba90942a2d13b76ec9397ca9ad7e67";
        ] );
    ( "hmetis_like",
      String.concat " "
        [
          "240:70b1d746844d602219be47cab9dbb00c";
          "240:9d87465d6f952ecc97660f5da61b938c";
          "245:90795b545621616a750131ecd54d35c4";
          "240:d9d5ba94da2c28ad4fcb603284a47045";
          "239:c1367eea4b6d8affac7cf866f3bef230";
          "241:2ed1b03c3ca16caa7d52799ae72cece7";
        ] );
    ( "ml_lifo",
      String.concat " "
        [
          "231:0478957a97ce519f2fc1a49ee410be5a";
          "238:bacceb8bee0348f1db36d68ff68bb9e0";
          "237:72d99ca2c76bb15b0b0a4bced4820d7f";
          "238:131cd274d91176039617e2ae6bf05ab8";
          "232:e1d048624517aff790bebaa7818aecc5";
          "242:661f037741e13ba334690be11f16c48b";
        ] );
    ( "ml_clip fixed",
      String.concat " "
        [
          "787:f6c635f2051051d4aacba0d5aff6c611";
          "824:7f120148d70c844768d1123312107821";
          "1045:63c8003e9fb5a1ca38c1d87f379e504d";
          "815:077cd323ebc591f412e786cef4ad644b";
          "766:36f0a9f7f3c517eb8e24122588f42d9a";
          "772:413aa8f850badbe7f2c2e2daf256959e";
        ] );
    ( "ml heavy_edge",
      String.concat " "
        [
          "242:ece8d33451c52fe2f669e362b374eef2";
          "253:6aae2436f7daad3fa51a20580516559a";
          "307:dbfd432c9a98ec2ed169b1793e3062cf";
          "243:c017f04b10106474cc0f5ddb07a76289";
          "243:aa289ff486d72bf4f9fa196f02464f5a";
          "242:a8718d505e3d6d62de0f5df498cfd80b";
        ] );
    ( "ml first_choice",
      String.concat " "
        [
          "249:2965fa606cbfd8246b27656be5935bbf";
          "246:ed163f40387d1317c1112c330f267892";
          "245:9452759d980dbcd328d71ab0d6ad877c";
          "241:de2af3cd508cdf7bf98b5bff9cb37748";
          "239:d3c2e28f621825c02226b7f41099a8ad";
          "242:d5c57d46ce694d37df5c61b47eda4552";
        ] );
    ( "ml hyperedge_coarsening",
      String.concat " "
        [
          "234:c1451f6499d7b1dcdafa431c33e8a4e6";
          "237:0c6e0666c8fafbabe4e4326ea0c57d2b";
          "236:57cc85c286f31390dbed311767e7edc7";
          "242:cdea91f71aa6bce930fa2570d08dadec";
          "241:cb1477f26b71673be8ec37e851a9db21";
          "237:c34c428e30b45c2f4a1b4c28d2ef30b9";
        ] );
    ( "flat clip lifo",
      String.concat " "
        [
          "385:52a4ae885f3cdd65ccc2bb4fc2eee76c";
          "237:f3ca9c8ed7875421e4a1f7217c979b82";
          "256:86ba742b766f06cdaa056df25dedbaea";
          "324:a58d9327df1e96ab0ceb20f36c8a10fa";
          "383:fa6f2126f15fd85ca605c866d0008bdb";
          "284:b64b42e21dc916cba19ff9c6281cbecd";
        ] );
    ( "flat clip fifo",
      String.concat " "
        [
          "410:7a1cdef2798e0d3ebd2e8ae2359d5dc2";
          "238:7aa2559f6000161400ed392bc68c1b2f";
          "397:d295f1111bbd723b0e05e354daa46a56";
          "357:ec976361a9b923f2634e40b09dd84976";
          "243:9b88286cd5af6ebf8ee357cddab6f5b3";
          "242:d94fd56d5bd23c40bd21b59a2350053f";
        ] );
    ( "flat clip random",
      String.concat " "
        [
          "243:fc7b187c2f95a35c6e04778742a32ff5";
          "432:a2bcbec04529f1e5c04d12dac601a50d";
          "238:d3d2765a2b4d2d54fb62ae180626efb3";
          "451:de882454a1bd640b4a4c412e6666a369";
          "247:846e529286e6584011f07dbab076c65a";
          "245:dab4062b44647bd25f25a6f3cb15bbb8";
        ] );
    ( "matching edge_coarsening",
      String.concat " "
        [
          "1796:c111e99b604e1a78f6fb67d982f8449a/1894:96e4acf41b1581e83f66f2f5ab8e26ce";
          "1788:1a84c4572238a9a04364ea88bcbd7ede/1900:1f731695b53a77131805509ceab0e78c";
          "1778:00ef166c3b02544195243c814f79dc4c/1903:811618f5e426a36c2b970ea58f0a45db";
          "1778:a4ba3473a9ee4f26ea782ee35454781b/1902:47568b3fb3e2b9c7f83ee85e4916557c";
          "1781:00346813d0ecb0b722689086f952dabd/1880:049efd057e34e74e698061f8d0648f33";
          "1793:f7b1b1d99a0bd1dbef96494bfbe448e7/1904:3c75f724b5b35f8272d435d837fcc3c6";
        ] );
    ( "matching first_choice",
      String.concat " "
        [
          "1110:f8202431d23d39eb1bc4ba164fb1dec4/1217:ea00e1fef3cd3ff9609993c2711e1c11";
          "1118:e33ad66176852c12e84e952879ba6749/1207:73d906c05e00941392426eb9c0e012ee";
          "1122:d39cf88b0bcf1d98d16d48f67d4842a6/1209:4399a575bd5624368dd4934b5f1f184b";
          "1119:dcff14f5f355e0238dd058dffceb5c03/1198:825a997023be93ba6ace7ae101209daf";
          "1115:7c85f8aa0c676ab33800af8fa2631a00/1210:cacb16697b5b403b7b3aa9f5557718dd";
          "1134:3b248b00b8d79b40784fdc8b183c2b71/1209:38b2a19ba917bcf537fa115670ad1d50";
        ] );
    ( "matching heavy_edge",
      String.concat " "
        [
          "1803:2391947e8cd700bd51459843c14247f2/1913:386b008eddc1fac934f199c0d467bc84";
          "1802:6bdf15c64ee74f7d4097830f9a1df5d2/1909:eb96fc3675c573fa5ef2d2cb18eea371";
          "1799:3ef0ebf91c5e304e5af13379b7e67c16/1923:98e4f1ba73707c7eec40a02acb0dbcbb";
          "1802:e8711589f2bb24b7427459df398b9b55/1905:534b4f028a78371df2c218c95d25011a";
          "1807:015219980ba6751c3c541955a5518890/1900:cf85ce3cbe44bcf5d9f2a3915fe33996";
          "1807:46383d209b31b4b2e8cb30d429bdd7fd/1904:c80090ff3df461ce4d21009e224e4e80";
        ] );
    ( "matching hyperedge_coarsening",
      String.concat " "
        [
          "2277:1b5893edb1ee93027e6c6e38eadab0db/2628:417497f738c2fa99c1e6b41dde72dac5";
          "2270:fcba5ce43d3541b45360ead7731a2a98/2637:85bd1915c3234c4938fac0070c6d2b56";
          "2292:574ccd984949597b5a2b50bdce35f496/2624:82d5ef73642928fff00f0357c7210c12";
          "2255:dfafbfbf7825de4a2c17da31d0f5d424/2628:92dced549318cc08eaadd2018ce98573";
          "2267:21fae97a1c66103840ce395e92808ff1/2623:c0f7c7e17baf078b06c0b006d2f9cb8d";
          "2265:5afc34f4bb84843caf00c9a0b977b41a/2626:f7258d96c76aba493f81baf8fadab36e";
        ] );
    ( "eco chain",
      String.concat " "
        [
          "warm/1617/244:9ac2c313e919fcc4f53e05ad25097d98";
          "warm/1809/244:9e6a41dd3433b10088427b9b013467dc";
          "warm/1250/248:bc5ae23f198b9344bece8e6028669407";
          "warm/492/244:0c679aa011a231f9137d10d3021faa99";
          "warm/1493/240:6ee2772821fe7af49eb76133da705ce2";
          "warm/1302/241:f71c843b256b79806674043ad967f75b";
          "warm/1752/241:3a0cc637d23cdb42114ce94d060532f0";
          "warm/1782/240:c04c77ce905a52b05cb8999da2e5f32b";
        ] );
    ("eco chain eco_ml link", "warm/492/244:0a437d3ac013f0b188c697f5883cc559");
    ( "recombine of two mlclip parents",
      String.concat " "
        [
          "236:3a5ffcd45101eb4f15d6a421b1724fb1:4dfeb783850097079279f2d13fa982d1";
          "240:9d87465d6f952ecc97660f5da61b938c:7f1d6169349f619539d7661c9a7d5c0c";
          "236:f06a1ab58068293c2fd81d04d3ded9d0:62e7c83d383b8b19785045123e5c7b8a";
        ] );
    (* stats re-recorded when they came to count every coarsest start
       and every level's refinement; cuts and assignments unchanged *)
    ( "ml_kway k=4",
      String.concat " "
        [
          "253:58f466d0dd5733f2a68934ff1bb68d33:1a6dc4a93cb72b87d5f354920d7acbbb";
          "271:5553d326166d9eaab22ea3452ce8d985:1e2823703e02549d9f3f5621b5040301";
          "256:6744298357ecb58d060b7051273626ef:12f21748b4fd0c9f5d0821a1a68b778b";
        ] );
    ( "lookahead engine",
      String.concat " "
        [
          "411:6463752b74b5df6890e30251909b3670:f957a2ca61e6ab38e8923dc8f42a5be8";
          "370:ce33e7eb72326dedf7a312fce5db0d1a:42f008fff38809103c0853d61a327c6f";
          "314:b06f61e39694407b4c4e6765c0f35fdd:a42a936338efc91f8bf64f70f46d28bc";
        ] );
    ( "sa engine",
      String.concat " "
        [
          "314:7a38a73c72c77b85281f81fdd2de8f0c:e3c9caff2e4fe76dd5ae4fde2fd8363b";
          "2439:05050ad63791a622319a090880f752a4:c34ebb4e5bc91a3c8cfeb65c4a15a85a";
          "2444:64245f3531df5bea322665f38ba26e10:7b979ec3eb2dea9c6eaec19660457b00";
        ] );
    ( "kl engine",
      String.concat " "
        [
          "59:aba19dc5fba50e4c96491c8924f297ec:3dfe55186b2eee01489fce6934e4e4d1";
          "59:b8abf34a9c14c38500e56f493e59d2a4:8a9ff675bc3cc0afb1be4db04d1bc627";
          "77:48251cde8bf7f8498f3300ec0dde192f:8a9ff675bc3cc0afb1be4db04d1bc627";
        ] );
    ( "spectral engine",
      String.concat " "
        [
          "39:ff42594879087d2f0b7263252e29a32e:c59c76ad4ef72965fe8bf549980a9331";
          "52:82baf908a7646de5db2803df237c2210:f6521c919ab902161958414e69cdb4d9";
          "53:8db7303809c4cb50bb0a3ff441dc86b7:dfff927911e656fb7d15452a651b24a9";
        ] );
  ]

let check (name, f) =
  Alcotest.test_case name `Quick (fun () ->
      let actual = f () in
      match List.assoc_opt name expected with
      | Some e -> Alcotest.(check string) (name ^ " digest") e actual
      | None -> Alcotest.failf "no recorded digest for %s: %s" name actual)

let () =
  Alcotest.run "kernel_digest"
    [
      ("multilevel", List.map check ml_cases);
      ("flat clip", List.map check flat_cases);
      ("matching", List.map check matching_cases);
      ("eco", List.map check eco_cases);
      ("records", List.map check record_cases);
    ]
