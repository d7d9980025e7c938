(** Topological ordering of integer-indexed directed graphs. *)

val sort : n:int -> succ:(int -> int list) -> (int array, int list) result
(** [sort ~n ~succ] orders the vertices [0 .. n-1] of the graph whose
    adjacency is given by [succ]. Returns [Ok order] with every edge going
    from an earlier to a later position, or [Error cycle_members] listing
    the vertices that remain on at least one cycle. The ordering is
    deterministic: among ready vertices, the smallest index comes first
    (Kahn's algorithm with an ordered frontier). *)

val longest_path_lengths :
  n:int -> succ:(int -> int list) -> weight:(int -> float) -> float array
(** [longest_path_lengths ~n ~succ ~weight] returns, for every vertex, the
    maximum total [weight] over paths ending at that vertex (inclusive of
    the vertex itself). The graph must be acyclic. *)
