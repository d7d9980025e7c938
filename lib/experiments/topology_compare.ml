type row = {
  topology : Noc_noc.Topology.t;
  eas : Pipeline.t;
  edf : Pipeline.t;
  mapped : Pipeline.t option;
}

type result = { n_tasks : int; rows : row list }

(* The generator seed of the one application every topology runs. *)
let seed = 0

let run ?jobs ?(n_tasks = 120) ?(map_search = false) () =
  let topologies =
    [
      Noc_noc.Topology.mesh ~cols:4 ~rows:4;
      Noc_noc.Topology.torus ~cols:4 ~rows:4;
      Noc_noc.Topology.honeycomb ~cols:4 ~rows:4;
    ]
  in
  let rows =
    (* Each row builds its own platform (nothing shared); the honeycomb
       row's BFS parent memo is per-domain ({!Noc_noc.Routing}). *)
    Noc_util.Pool.map_list ?jobs
      (fun topology ->
        Runner.traced
          ~label:
            (Format.asprintf "topology_compare/%a/seed=%d" Noc_noc.Topology.pp
               topology seed)
        @@ fun () ->
        let platform = Noc_noc.Platform.heterogeneous ~seed:42 topology () in
        (* The same seed and parameters give per-task costs that depend
           only on the PE array, which is shared across topologies. *)
        let params = { Noc_tgff.Params.default with n_tasks } in
        let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
        let evaluate request = Pipeline.evaluate platform ctg request in
        let mapped =
          if not map_search then None
          else
            (* Winner of the annealed search, pinned and re-evaluated
               through the pipeline so the row is certified like the
               others. The inner [jobs] stays 1: this trial already
               runs on a pool worker. *)
            let r = Noc_map.Search.run ~jobs:1 (Noc_eas.Kernel.build platform ctg) in
            Some
              (evaluate
                 { (Pipeline.request Runner.Eas) with pinned = Some r.Noc_map.Search.winner.mapping })
        in
        {
          topology;
          eas = evaluate (Pipeline.request Runner.Eas);
          edf = evaluate (Pipeline.request Runner.Edf);
          mapped;
        })
      topologies
  in
  { n_tasks; rows }

let render result =
  let with_map = List.exists (fun r -> r.mapped <> None) result.rows in
  let header =
    [
      "topology"; "EAS comp (nJ)"; "EAS comm (nJ)"; "EAS hops"; "EAS miss";
      "EDF comm (nJ)"; "EDF hops";
    ]
    @ (if with_map then [ "MAP total (nJ)"; "MAP miss" ] else [])
  in
  let rows =
    List.map
      (fun r ->
        let m (e : Pipeline.t) = e.Pipeline.metrics in
        [
          Format.asprintf "%a" Noc_noc.Topology.pp r.topology;
          Noc_util.Text_table.float_cell ~decimals:0 (m r.eas).Noc_sched.Metrics.computation_energy;
          Noc_util.Text_table.float_cell ~decimals:0 (m r.eas).Noc_sched.Metrics.communication_energy;
          Printf.sprintf "%.2f" (m r.eas).Noc_sched.Metrics.average_hops;
          string_of_int (Noc_sched.Metrics.miss_count (m r.eas));
          Noc_util.Text_table.float_cell ~decimals:0 (m r.edf).Noc_sched.Metrics.communication_energy;
          Printf.sprintf "%.2f" (m r.edf).Noc_sched.Metrics.average_hops;
        ]
        @
        match r.mapped with
        | None -> if with_map then [ "-"; "-" ] else []
        | Some e ->
          [
            Noc_util.Text_table.float_cell ~decimals:0 (m e).Noc_sched.Metrics.total_energy;
            string_of_int (Noc_sched.Metrics.miss_count (m e));
          ])
      result.rows
  in
  Printf.sprintf
    "Topology extension (Sec. 7): same application (%d tasks, seed %d), same\n\
     PE array, different fabrics. Computation energy is fabric-independent;\n\
     communication energy follows each fabric's route lengths.\n%s\n"
    result.n_tasks seed
    (Noc_util.Text_table.render ~header rows)

(* Big-mesh Pareto sweep: category-III graphs on 8x8/16x16 meshes, one
   point per balance-weight setting. The balance weight trades Eq.-3
   energy (annealing wants to pack communicating tasks onto cheap
   tiles) against makespan (deadlines want the load spread), so the
   (energy, makespan) pairs trace the mapping front the schedule can
   pick from; the identity mapping is the naive-placement reference. *)

type point = {
  label : string;
  balance_frac : float;
  static_value : float;
  energy : float;
  makespan : float;
  misses : int;
  cert_errors : int;
}

type pareto_row = {
  mesh : int * int;
  pareto_n_tasks : int;
  n_edges : int;
  points : point list;  (** Identity first, then one point per weight. *)
}

type pareto = { scale : float; rows : pareto_row list }

let default_meshes = [ (8, 8); (16, 16) ]

(* The category-III benchmark of the sweep, and its balance weights:
   pure energy, then increasing load-spread pressure. *)
let index = 1
let balance_fracs = [ 0.; 0.1; 0.5; 2. ]

let point_of_candidate ~label ~balance_frac (c : Noc_map.Search.candidate) =
  {
    label;
    balance_frac;
    static_value = c.Noc_map.Search.static_value;
    energy = c.Noc_map.Search.energy;
    makespan = c.Noc_map.Search.makespan;
    misses = c.Noc_map.Search.misses;
    cert_errors = c.Noc_map.Search.cert_errors;
  }

let pareto ?jobs ?(meshes = default_meshes) ?(scale = 1.) () =
  let params = Noc_tgff.Category.scaled_params Noc_tgff.Category.Category_iii ~scale in
  let rows =
    List.map
      (fun (cols, rows) ->
        Runner.traced
          ~label:(Printf.sprintf "topology_compare/pareto/%dx%d/index=%d" cols rows index)
        @@ fun () ->
        let platform = Pipeline.mesh_platform (cols, rows) in
        let seed = Noc_tgff.Category.seed_of Noc_tgff.Category.Category_iii index in
        let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
        (* One kernel per mesh, shared by every weight setting. *)
        let kernel = Noc_eas.Kernel.build platform ctg in
        let tables = Noc_map.Objective.lift kernel in
        let unit_balance = Noc_map.Objective.mean_exec_energy tables in
        let searches =
          (* The per-weight searches are independent; fan them out. *)
          Noc_util.Pool.map_list ?jobs
            (fun frac ->
              let params =
                {
                  Noc_map.Search.default_params with
                  survivors = 1;
                  weights = { Noc_map.Objective.latency = 0.; balance = frac *. unit_balance };
                }
              in
              (frac, Noc_map.Search.run ~jobs:1 ~params kernel))
            balance_fracs
        in
        let identity_point =
          (* Every search evaluates the identity candidate; read it off
             the first one. *)
          let _, (r : Noc_map.Search.result) = List.hd searches in
          let c =
            List.find
              (fun (c : Noc_map.Search.candidate) -> c.origin = Noc_map.Search.Identity)
              r.candidates
          in
          point_of_candidate ~label:"identity" ~balance_frac:0. c
        in
        let sa_points =
          List.map
            (fun ((frac : float), (r : Noc_map.Search.result)) ->
              (* The best-static survivor, not the winner: at non-zero
                 balance weight the interesting number is what the
                 annealer traded, not the winner fallback. At weight 0
                 the best survivor's energy can never exceed the
                 identity's (chain 0 starts there and the pure-energy
                 objective equals the pinned-EAS Eq.-3 energy). *)
              let c = List.hd r.candidates in
              point_of_candidate
                ~label:(Printf.sprintf "sa/balance=%g" frac)
                ~balance_frac:frac c)
            searches
        in
        {
          mesh = (cols, rows);
          pareto_n_tasks = Noc_ctg.Ctg.n_tasks ctg;
          n_edges = Noc_ctg.Ctg.n_edges ctg;
          points = identity_point :: sa_points;
        })
      meshes
  in
  { scale; rows }

let render_pareto p =
  let header =
    [ "mesh"; "point"; "energy (nJ)"; "makespan"; "misses"; "certify" ]
  in
  let rows =
    List.concat_map
      (fun r ->
        List.map
          (fun pt ->
            [
              Printf.sprintf "%dx%d" (fst r.mesh) (snd r.mesh);
              pt.label;
              Noc_util.Text_table.float_cell ~decimals:0 pt.energy;
              Noc_util.Text_table.float_cell ~decimals:0 pt.makespan;
              string_of_int pt.misses;
              (if pt.cert_errors = 0 then "ok" else string_of_int pt.cert_errors ^ " errors");
            ])
          r.points)
      p.rows
  in
  Printf.sprintf
    "Mapping Pareto sweep: category-III graphs (~%s tasks), annealed task-to-\n\
     tile mappings under increasing balance weight vs the identity placement.\n\
     Energy is the pinned-EAS Eq. 3 total; rows within a mesh share the graph.\n%s\n"
    (match p.rows with
    | r :: _ -> string_of_int r.pareto_n_tasks
    | [] -> "?")
    (Noc_util.Text_table.render ~header rows)
