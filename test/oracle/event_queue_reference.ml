(* Frozen copy of Noc_sim.Event_queue as it stood before the executor
   moved onto flat arrays: a polymorphic binary min-heap of records,
   which Executor_reference runs on. *)

(* Binary min-heap on (time, sequence number). *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;  (* heap.(0 .. size-1) *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t entry =
  let capacity = Array.length t.heap in
  if t.size = capacity then begin
    let bigger = Array.make (Stdlib.max 8 (2 * capacity)) entry in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end

let push t ~time payload =
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  grow t entry;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before t.heap.(!i) t.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(parent) in
    t.heap.(parent) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := parent
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
        let smallest = ref !i in
        if left < t.size && before t.heap.(left) t.heap.(!smallest) then
          smallest := left;
        if right < t.size && before t.heap.(right) t.heap.(!smallest) then
          smallest := right;
        if !smallest = !i then continue := false
        else begin
          let tmp = t.heap.(!smallest) in
          t.heap.(!smallest) <- t.heap.(!i);
          t.heap.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.time, top.payload)
  end
