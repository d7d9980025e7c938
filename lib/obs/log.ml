type level = Error | Warn | Info | Debug

let to_int = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let current = Atomic.make (to_int Info)

let set_level l = Atomic.set current (to_int l)

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" | "quiet" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let logf lvl fmt =
  if to_int lvl <= Atomic.get current then
    Printf.kfprintf
      (fun oc ->
        output_char oc '\n';
        flush oc)
      stderr
      ("nocsched: [%s] " ^^ fmt)
      (to_string lvl)
  else Printf.ifprintf stderr ("nocsched: [%s] " ^^ fmt) (to_string lvl)

let errorf fmt = logf Error fmt
let warnf fmt = logf Warn fmt
let infof fmt = logf Info fmt

let init_from_env () =
  match Sys.getenv_opt "NOCSCHED_LOG" with
  | None -> ()
  | Some s -> (
    match of_string s with
    | Some l -> set_level l
    | None -> warnf "NOCSCHED_LOG=%S: expected error, warn, info or debug" s)
