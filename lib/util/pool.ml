(* Deterministic fan-out over a fixed-size domain pool.

   The experiment campaigns are embarrassingly parallel at the trial
   level: every trial builds its own CTG, Resource_state and schedule,
   and only reads shared immutable inputs (platforms with eagerly warmed
   route tables). This module gives them a single primitive —
   [map_range] — with a hard determinism contract: the result is the
   list [f 0; f 1; ...; f (n-1)] in submission order, bit-for-bit
   independent of the job count and chunk size.

   Work distribution is dynamic: workers claim chunks of indices from a
   shared atomic counter, so a slow trial does not stall the others.
   Each result lands in its own preallocated slot, which makes the
   writes race-free (disjoint indices) and the order reconstruction
   trivial. [Domain.join] on every worker establishes the
   happens-before edge that lets the submitting domain read the slots.

   Exceptions: every index is still evaluated (no early abort), and the
   exception of the *smallest* failing index is re-raised afterwards —
   the same exception a serial [List.init] run would have surfaced. *)

type 'a cell = Value of 'a | Raised of exn * Printexc.raw_backtrace

let default_jobs () =
  match Sys.getenv_opt "NOCSCHED_JOBS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some jobs when jobs >= 1 -> jobs
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "NOCSCHED_JOBS=%S: expected a positive integer" s))

let finish results =
  (* First failing index wins, exactly like a serial left-to-right run. *)
  Array.iter
    (function
      | Value _ -> ()
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt)
    results;
  Array.to_list
    (Array.map
       (function Value v -> v | Raised _ -> assert false)
       results)

let map_range ?jobs ?(chunk = 1) ~n f =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map_range: jobs must be >= 1";
  if chunk < 1 then invalid_arg "Pool.map_range: chunk must be >= 1";
  if n < 0 then invalid_arg "Pool.map_range: negative item count";
  let eval i = try Value (f i) with e -> Raised (e, Printexc.get_raw_backtrace ()) in
  if n = 0 then []
  else if jobs = 1 || n = 1 then finish (Array.init n eval)
  else begin
    let results = Array.make n (Raised (Exit, Printexc.get_callstack 0)) in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let start = Atomic.fetch_and_add next chunk in
        if start < n then begin
          for i = start to min n (start + chunk) - 1 do
            results.(i) <- eval i
          done;
          loop ()
        end
      in
      loop ()
    in
    (* The submitting domain is one of the [jobs] workers; at most one
       spawned domain per chunk, so tiny inputs do not pay for idle
       domains. *)
    let n_chunks = (n + chunk - 1) / chunk in
    let spawned =
      List.init (min (jobs - 1) (n_chunks - 1)) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    finish results
  end

let map_list ?jobs f items =
  let items = Array.of_list items in
  map_range ?jobs ~n:(Array.length items) (fun i -> f items.(i))
