(* Client-side aggregate of per-server MREP answers: who holds which
   stripe, and does what they hold match the bytes we blasted. *)

type holding = { server : int; bytes : int; crc : int32 }

type t = {
  object_id : int;
  stripes : int;
  table : holding list array;  (* stripe index -> holdings, newest first *)
}

let create ~object_id ~stripes =
  if stripes <= 0 then invalid_arg "Manifest.create: stripes must be positive";
  { object_id; stripes; table = Array.make stripes [] }

let object_id t = t.object_id
let stripes t = t.stripes

let record t ~server entries =
  List.iter
    (fun (e : Packet.Stripe.entry) ->
      let s = e.Packet.Stripe.stripe in
      (* An answer about another object, or with a geometry that disagrees
         with ours, is not evidence about this transfer — skip it rather
         than let a confused server poison the replication count. *)
      if
        s.Packet.Stripe.object_id = t.object_id
        && s.Packet.Stripe.count = t.stripes
        && s.Packet.Stripe.index >= 0
        && s.Packet.Stripe.index < t.stripes
      then
        let index = s.Packet.Stripe.index in
        let others =
          List.filter (fun h -> h.server <> server) t.table.(index)
        in
        t.table.(index) <-
          { server; bytes = e.Packet.Stripe.bytes; crc = e.Packet.Stripe.crc }
          :: others)
    entries

(* A holder counts only if its copy re-reads as the bytes we wrote: the
   CRC is the end-to-end identity of the stripe, not its name. *)
let valid_holders t ~stripe ~crc =
  List.filter_map
    (fun h -> if h.crc = crc then Some h.server else None)
    t.table.(stripe)

let replication t ~crcs =
  if Array.length crcs <> t.stripes then
    invalid_arg "Manifest.replication: crcs length mismatch";
  Array.init t.stripes (fun i -> List.length (valid_holders t ~stripe:i ~crc:crcs.(i)))

let quorum_met t ~quorum ~crcs =
  Array.for_all (fun n -> n >= quorum) (replication t ~crcs)

let under_replicated t ~replicas ~crcs =
  if Array.length crcs <> t.stripes then
    invalid_arg "Manifest.under_replicated: crcs length mismatch";
  List.init t.stripes (fun i -> (i, valid_holders t ~stripe:i ~crc:crcs.(i)))
  |> List.filter (fun (_, valid) -> List.length valid < replicas)
