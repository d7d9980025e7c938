type t = { fd : Unix.file_descr; ic : in_channel }

let connect ?(retries = 0) ~socket_path () =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> { fd; ic = Unix.in_channel_of_descr fd }
    | exception (Unix.Unix_error _ as exn) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if attempt >= retries then raise exn
      else begin
        Unix.sleepf 0.05;
        go (attempt + 1)
      end
  in
  go 0

let request t line =
  Protocol.write_line t.fd line;
  input_line t.ic

let close t = try close_in t.ic with Sys_error _ -> ()

let with_connection ?retries ~socket_path f =
  let t = connect ?retries ~socket_path () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let one_shot ?retries ~socket_path line =
  with_connection ?retries ~socket_path (fun t -> request t line)
