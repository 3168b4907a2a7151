(* Consistent-hash placement: which servers hold which stripe. See the
   interface for the design contract. *)

type t = {
  seed : int;
  nodes : int list;  (* distinct, ascending *)
  points : (int * int) array;  (* (ring point, node), ascending *)
}

(* The key space and the point space must be uncorrelated — a node id that
   collides with a key hash would always capture it — so key hashing salts
   the seed with a tag the point hash never uses. *)
let key_salt = 0x52494e47 (* "RING" *)

(* Virtual points per server. *)
let vnodes = 64

let create ~seed nodes =
  if nodes = [] then invalid_arg "Placement.create: empty ring";
  let nodes = List.sort_uniq compare nodes in
  let points =
    List.concat_map
      (fun node -> List.init vnodes (fun v -> (Stats.Hash.mix2 ~seed node v, node)))
      nodes
    |> Array.of_list
  in
  (* Ties on the point value (astronomically rare but possible) break by
     node id, so the ring order is a pure function of (seed, nodes). *)
  Array.sort compare points;
  { seed; nodes; points }

let nodes t = t.nodes
let size t = List.length t.nodes

let remove t node =
  match List.filter (fun n -> n <> node) t.nodes with
  | [] -> invalid_arg "Placement.remove: cannot empty the ring"
  | rest -> create ~seed:t.seed rest

let key t ~object_id ~stripe =
  Stats.Hash.mix2 ~seed:(t.seed lxor key_salt) object_id stripe

(* First point strictly after [k], wrapping — the classic clockwise walk. *)
let start_index t k =
  let n = Array.length t.points in
  let rec search lo hi =
    (* invariant: points.(lo-1) <= k < points.(hi) (with virtual sentinels) *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst t.points.(mid) <= k then search (mid + 1) hi else search lo mid
  in
  search 0 n mod n

let successors t ~object_id ~stripe =
  let n = Array.length t.points in
  let want = size t in
  let start = start_index t (key t ~object_id ~stripe) in
  let seen = Hashtbl.create want in
  let rec walk i acc found =
    if found = want then List.rev acc
    else
      let node = snd t.points.((start + i) mod n) in
      if Hashtbl.mem seen node then walk (i + 1) acc found
      else begin
        Hashtbl.add seen node ();
        walk (i + 1) (node :: acc) (found + 1)
      end
  in
  walk 0 [] 0

let replicas t ~object_id ~stripe ~r =
  if r <= 0 then invalid_arg "Placement.replicas: r must be positive";
  List.filteri (fun i _ -> i < r) (successors t ~object_id ~stripe)
