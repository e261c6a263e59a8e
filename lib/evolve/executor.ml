module Engine = Hypart_engine.Engine
module Parallel = Hypart_engine.Parallel
module Bipartition = Hypart_partition.Bipartition

type job = { engine : string; seed : int; starts : int }

type outcome = {
  cut : int;
  legal : bool;
  seconds : float;
  assignment : int array;
  source : string;
  stats : (string * float) list;
}

type t = {
  name : string;
  eval :
    Hypart_partition.Problem.t -> job list -> (outcome, string) result list;
}

let run_local problem (j : job) =
  let engine = Engine.find_exn j.engine in
  (* `partition --starts n --seed s`, at any --domains *)
  let seeds = List.init j.starts (fun i -> j.seed + i) in
  let (_seed, result), records = Engine.multistart_seeds engine problem ~seeds in
  {
    cut = result.Engine.Result.cut;
    legal = result.Engine.Result.legal;
    seconds = Engine.cpu_seconds records;
    assignment = Bipartition.assignment result.Engine.Result.solution;
    source = "local";
    stats = result.Engine.Result.stats;
  }

let in_process ?domains () =
  {
    name = "in-process";
    eval =
      (fun problem jobs ->
        let jobs = Array.of_list jobs in
        Parallel.map_seeds ?domains
          ~seeds:(List.init (Array.length jobs) Fun.id)
          (fun i -> Ok (run_local problem jobs.(i))));
  }

let of_fun ~name eval = { name; eval }
