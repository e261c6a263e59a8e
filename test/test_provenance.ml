(* Provenance stamps under concurrency.  This executable forces
   [Provenance.git_describe] for the first time from several domains at
   once — the daemon's worker pool does exactly that when its first jobs
   finish together — so it must stay a process of its own: nothing may
   compute the stamp before the test does. *)

module Provenance = Hypart_lab.Provenance

let test_concurrent_first_use () =
  let go = Atomic.make false in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            Provenance.git_describe ()))
  in
  Atomic.set go true;
  (* [Domain.join] re-raises whatever a domain raised *)
  let stamps = List.map Domain.join domains in
  let first = List.hd stamps in
  List.iter (Alcotest.(check string) "every domain sees one stamp" first) stamps;
  Alcotest.(check string) "later calls agree" first (Provenance.git_describe ())

let () =
  Alcotest.run "provenance"
    [
      ( "git_describe",
        [
          Alcotest.test_case "concurrent first use" `Quick
            test_concurrent_first_use;
        ] );
    ]
