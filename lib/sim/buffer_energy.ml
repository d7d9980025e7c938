(* A register-file-based holding cost of the same magnitude as the switch
   energy, in nJ per bit per microsecond. *)
let e_bbit = 1e-5

let estimate ctg (outcome : Executor.outcome) =
  let total = ref 0. in
  Array.iteri
    (fun edge_id waiting ->
      let volume = (Noc_ctg.Ctg.edge ctg edge_id).Noc_ctg.Edge.volume in
      total := !total +. (volume *. e_bbit *. waiting))
    outcome.Executor.edge_waiting;
  !total
