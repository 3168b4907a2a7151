type stats = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable truncated : int;
  mutable delayed : int;
}

let create_stats () =
  { dropped = 0; duplicated = 0; reordered = 0; corrupted = 0; truncated = 0; delayed = 0 }

let total stats =
  stats.dropped + stats.duplicated + stats.reordered + stats.corrupted + stats.truncated
  + stats.delayed

let pp_stats ppf s =
  Format.fprintf ppf "drop=%d dup=%d reorder=%d corrupt=%d truncate=%d delay=%d" s.dropped
    s.duplicated s.reordered s.corrupted s.truncated s.delayed

type emission = { delay_ns : int; data : bytes }

(* A held-back datagram: released after [countdown] further transmissions. *)
type held = { mutable countdown : int; emission : emission }

type stage =
  | Drop of Netmodel.Error_model.t
  | Duplicate of float
  | Hold of { p : float; gap : int }
  | Flip of { p : float; max_bits : int }
  | Cut of float
  | Jitter of { p : float; min_ns : int; max_ns : int }

type t = {
  rng : Stats.Rng.t;
  scenario : Scenario.t;
  stages : stage list;
  stats : stats;
  mutable counters : Protocol.Counters.t option;
  mutable observer : (string -> unit) option;
  mutable held : held list;
}

let stage_of_injector rng = function
  | Scenario.Drop_iid p -> Drop (Netmodel.Error_model.iid rng ~loss:p)
  | Scenario.Drop_burst { mean_loss; burst_length } ->
      Drop (Netmodel.Error_model.matched_gilbert_elliott rng ~mean_loss ~burst_length)
  | Scenario.Duplicate p -> Duplicate p
  | Scenario.Reorder { p; gap } -> Hold { p; gap }
  | Scenario.Corrupt { p; max_bits } -> Flip { p; max_bits }
  | Scenario.Truncate p -> Cut p
  | Scenario.Delay { p; min_ns; max_ns } -> Jitter { p; min_ns; max_ns }

let create ?counters ?(seed = 1) scenario =
  let rng = Stats.Rng.create ~seed in
  {
    rng;
    scenario;
    stages = List.map (stage_of_injector rng) (Scenario.injectors scenario);
    stats = create_stats ();
    counters;
    observer = None;
    held = [];
  }

let scenario t = t.scenario
let stats t = t.stats
let attach_counters t counters = t.counters <- Some counters
let set_observer t observer = t.observer <- Some observer

let note t label bump =
  bump t.stats;
  (match t.observer with None -> () | Some f -> f label);
  match t.counters with
  | None -> ()
  | Some c -> c.Protocol.Counters.faults_injected <- c.Protocol.Counters.faults_injected + 1

let flip_bits t ~max_bits data =
  let copy = Bytes.copy data in
  let bits = 1 + Stats.Rng.int t.rng max_bits in
  for _ = 1 to bits do
    let bit = Stats.Rng.int t.rng (8 * Bytes.length copy) in
    let byte = bit / 8 in
    Bytes.set_uint8 copy byte (Bytes.get_uint8 copy byte lxor (1 lsl (bit mod 8)))
  done;
  copy

let apply_stage t emissions stage =
  match stage with
  | Drop model ->
      List.filter
        (fun _ ->
          if Netmodel.Error_model.drops model then begin
            note t "drop" (fun s -> s.dropped <- s.dropped + 1);
            false
          end
          else true)
        emissions
  | Duplicate p ->
      List.concat_map
        (fun e ->
          if p > 0.0 && Stats.Rng.bernoulli t.rng ~p then begin
            note t "duplicate" (fun s -> s.duplicated <- s.duplicated + 1);
            [ e; { e with data = Bytes.copy e.data } ]
          end
          else [ e ])
        emissions
  | Hold { p; gap } ->
      List.filter
        (fun e ->
          if p > 0.0 && Stats.Rng.bernoulli t.rng ~p then begin
            note t "reorder" (fun s -> s.reordered <- s.reordered + 1);
            t.held <- { countdown = gap; emission = e } :: t.held;
            false
          end
          else true)
        emissions
  | Flip { p; max_bits } ->
      List.map
        (fun e ->
          if p > 0.0 && Bytes.length e.data > 0 && Stats.Rng.bernoulli t.rng ~p then begin
            note t "corrupt" (fun s -> s.corrupted <- s.corrupted + 1);
            { e with data = flip_bits t ~max_bits e.data }
          end
          else e)
        emissions
  | Cut p ->
      List.map
        (fun e ->
          if p > 0.0 && Bytes.length e.data > 0 && Stats.Rng.bernoulli t.rng ~p then begin
            note t "truncate" (fun s -> s.truncated <- s.truncated + 1);
            { e with data = Bytes.sub e.data 0 (Stats.Rng.int t.rng (Bytes.length e.data)) }
          end
          else e)
        emissions
  | Jitter { p; min_ns; max_ns } ->
      List.map
        (fun e ->
          if p > 0.0 && Stats.Rng.bernoulli t.rng ~p then begin
            note t "delay" (fun s -> s.delayed <- s.delayed + 1);
            let extra = min_ns + Stats.Rng.int t.rng (max_ns - min_ns + 1) in
            { e with delay_ns = e.delay_ns + extra }
          end
          else e)
        emissions

let take_due t =
  List.iter (fun h -> h.countdown <- h.countdown - 1) t.held;
  let due, still = List.partition (fun h -> h.countdown <= 0) t.held in
  t.held <- still;
  List.map (fun h -> h.emission) due

let tx_bytes t data =
  (* Held-back datagrams released this round bypass the pipeline: the fault
     that delayed them has already been applied. *)
  let released = take_due t in
  let out =
    List.fold_left (apply_stage t) [ { delay_ns = 0; data = Bytes.copy data } ] t.stages
  in
  out @ released

let flush t =
  let pending = List.map (fun h -> h.emission) t.held in
  t.held <- [];
  pending

let tx_message ?(on_undecodable = fun _ -> ()) t message =
  tx_bytes t (Packet.Codec.encode message)
  |> List.filter_map (fun e ->
         match Packet.Codec.decode e.data with
         | Ok m -> Some (e.delay_ns, m)
         | Error err ->
             (* A faulted frame the receiving codec would reject: on a real
                socket it crosses the wire and is discarded on arrival; on
                the simulated wire we discard it here and let the caller
                account for the detection. *)
             on_undecodable err;
             None)
