(* Bit-identity pins for the multilevel kernels: CLIP populate order,
   contraction and the four matching schemes.

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

let instance = lazy (Suite.instance ~scale:4.0 "ibm01")
let problem () = Problem.make ~tolerance:0.10 (Lazy.force instance)

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

let of_result (r : Fm.result) =
  Printf.sprintf "%d:%s" r.Fm.cut
    (digest_ints (Bipartition.assignment r.Fm.solution))

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
            of_result (Ml.vcycle ~config:Ml.ml_clip rng p r.Fm.solution)) );
    (* V-cycles rarely improve a multilevel start at this size; from a
       flat start they do, so the restricted coarsening is pinned too *)
    ( "vcycle of flat lifo",
      fun () ->
        let p = problem () in
        per_seed (fun seed ->
            let rng = Rng.create seed in
            let r = Fm.run_random_start ~config:Fm_config.strong_lifo rng p in
            of_result (Ml.vcycle ~config:Ml.ml_clip rng p r.Fm.solution)) );
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
    ]
