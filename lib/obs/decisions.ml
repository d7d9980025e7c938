let enabled = Atomic.make false
let set_enabled v = Atomic.set enabled v
let is_enabled () = Atomic.get enabled

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

type record = {
  run : string;
  seq : int;
  task : int;
  rule : string;
  chosen : int;
  budgeted_deadline : float;
  finishes : float array;
}

let lock = Mutex.create ()
let records : record list ref = ref []

(* Current (run label, next sequence number) of this domain. *)
let context_key : (string ref * int ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref "", ref 0))

let with_run label f =
  let run, seq = Domain.DLS.get context_key in
  let saved_run = !run and saved_seq = !seq in
  run := label;
  seq := 0;
  Fun.protect
    ~finally:(fun () ->
      run := saved_run;
      seq := saved_seq)
    f

let record ~task ~rule ~chosen ~budgeted_deadline ~finishes =
  if Atomic.get enabled then begin
    let run, seq = Domain.DLS.get context_key in
    let r =
      {
        run = !run;
        seq = !seq;
        task;
        rule;
        chosen;
        budgeted_deadline;
        finishes = Array.copy finishes;
      }
    in
    incr seq;
    with_lock lock (fun () -> records := r :: !records)
  end

let count () = with_lock lock (fun () -> List.length !records)
let reset () = with_lock lock (fun () -> records := [])

(* One record and its newline, appended to the export buffer. *)
let add_record buf r =
  let str = Buffer.add_string buf and int = Noc_util.Scan.add_int buf in
  str "{\"run\": ";
  Json.add_escaped buf r.run;
  str ", \"seq\": ";
  int r.seq;
  str ", \"task\": ";
  int r.task;
  str ", \"rule\": ";
  Json.add_escaped buf r.rule;
  str ", \"chosen\": ";
  int r.chosen;
  str ", \"chosen_f\": ";
  Json.add_number buf r.finishes.(r.chosen);
  str ", \"budgeted_deadline\": ";
  Json.add_number buf r.budgeted_deadline;
  str ", \"candidates\": [";
  Array.iteri
    (fun pe f ->
      if pe > 0 then str ", ";
      str "{\"pe\": ";
      int pe;
      str ", \"f\": ";
      Json.add_number buf f;
      str "}")
    r.finishes;
  str "]}\n"

let export_jsonl () =
  let sorted =
    List.sort
      (fun a b ->
        let c = compare a.run b.run in
        if c <> 0 then c else compare a.seq b.seq)
      (with_lock lock (fun () -> !records))
  in
  let buf = Buffer.create 4096 in
  List.iter (add_record buf) sorted;
  Buffer.contents buf
