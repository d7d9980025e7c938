(* Binary min-heap on (time, sequence number): slot [i] of the heap is
   [times.(i)], [seqs.(i)], [payloads.(i)] for i < [size]. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable last : float;  (* the time of the last pop *)
}

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0; last = nan }

let is_empty t = t.size = 0
let time t = t.last

let[@inline] before t i j =
  t.times.(i) < t.times.(j) || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = t.times.(i) and seq = t.seqs.(i) and payload = t.payloads.(i) in
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.payloads.(i) <- t.payloads.(j);
  t.times.(j) <- time;
  t.seqs.(j) <- seq;
  t.payloads.(j) <- payload

let grow t =
  let capacity = Array.length t.times in
  if t.size = capacity then begin
    let capacity' = Stdlib.max 8 (2 * capacity) in
    let times = Array.make capacity' 0. and seqs = Array.make capacity' 0 in
    let payloads = Array.make capacity' 0 in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.payloads 0 payloads 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.payloads <- payloads
  end

let push t ~time payload =
  grow t;
  let i = ref t.size in
  t.times.(!i) <- time;
  t.seqs.(!i) <- t.next_seq;
  t.payloads.(!i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  (* Sift up. *)
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before t !i parent
  do
    let parent = (!i - 1) / 2 in
    swap t parent !i;
    i := parent
  done

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let payload = t.payloads.(0) in
  t.last <- t.times.(0);
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.times.(0) <- t.times.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.payloads.(0) <- t.payloads.(t.size);
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
      let smallest = ref !i in
      if left < t.size && before t left !smallest then smallest := left;
      if right < t.size && before t right !smallest then smallest := right;
      if !smallest = !i then continue := false
      else begin
        swap t !smallest !i;
        i := !smallest
      end
    done
  end;
  payload
