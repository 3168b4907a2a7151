(* Ring transfers: striped, replicated blasts with write quorum and
   read-repair.

   Pure layers first — the shared Stats.Hash (balance, and the steering
   formula pinned byte-for-byte so sharded DST journals keep replaying),
   consistent-hash placement (balance, minimal remapping on a death),
   stripe/manifest wire codecs, stripe slicing and planning — then the
   engine's manifest table over memnet, the whole-system DST scenario
   (kill one of N mid-transfer under every netem scenario; quorum holds
   and repair reconverges, bit-for-bit at any jobs), and a real-UDP fleet
   put/kill/repair pass. *)

module Sim = Eventsim.Sim
module Proc = Eventsim.Proc
module Time = Eventsim.Time
module Net = Memnet.Net

(* ------------------------------------------------------------------ hash *)

(* The DST steering formula, frozen: changing it silently re-shards every
   recorded journal. This is the exact historical expression. *)
let test_hash_steer_pinned () =
  List.iter
    (fun (seed, port) ->
      let expected =
        ((port * 0x9E3779B1) lxor (seed * 0x85EBCA77)) lsr 11 land 0x3FFF_FFFF
      in
      Alcotest.(check int)
        (Printf.sprintf "steer seed=%d port=%d" seed port)
        expected
        (Stats.Hash.steer ~seed port))
    [ (1, 40_000); (7, 40_001); (123, 9_000); (0, 0); (999_983, 65_535) ]

let test_hash_mix_spreads () =
  (* Identity-adjacent inputs must land far apart: mix is the finalizer
     behind every placement point. *)
  let h = Hashtbl.create 64 in
  for i = 0 to 9_999 do
    Hashtbl.replace h (Stats.Hash.mix i) ()
  done;
  Alcotest.(check int) "10k distinct inputs, 10k distinct outputs" 10_000
    (Hashtbl.length h)

let qcheck_mix2_balance =
  QCheck.Test.make ~name:"mix2 buckets stay balanced" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let buckets = Array.make 8 0 in
      let n = 4_000 in
      for key = 0 to n - 1 do
        let b = Stats.Hash.mix2 ~seed key 0 mod 8 in
        buckets.(b) <- buckets.(b) + 1
      done;
      let fair = n / 8 in
      Array.for_all (fun c -> c > fair / 2 && c < fair * 2) buckets)

(* ------------------------------------------------------------- placement *)

let test_placement_replicas_distinct () =
  let ring = Ring.Placement.create ~seed:11 [ 0; 1; 2; 3; 4 ] in
  for stripe = 0 to 63 do
    let r = Ring.Placement.replicas ring ~object_id:7 ~stripe ~r:3 in
    Alcotest.(check int) "three replicas" 3 (List.length r);
    Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare r))
  done

let test_placement_deterministic () =
  let a = Ring.Placement.create ~seed:3 [ 0; 1; 2 ]
  and b = Ring.Placement.create ~seed:3 [ 2; 0; 1 ] in
  for stripe = 0 to 31 do
    Alcotest.(check (list int)) "order-insensitive construction"
      (Ring.Placement.successors a ~object_id:5 ~stripe)
      (Ring.Placement.successors b ~object_id:5 ~stripe)
  done

let test_placement_balance () =
  (* Primary ownership over many stripes splits roughly evenly — the
     virtual nodes doing their job. *)
  let servers = 5 and stripes = 2_000 in
  let ring = Ring.Placement.create ~seed:42 (List.init servers Fun.id) in
  let owned = Array.make servers 0 in
  for stripe = 0 to stripes - 1 do
    match Ring.Placement.replicas ring ~object_id:1 ~stripe ~r:1 with
    | [ primary ] -> owned.(primary) <- owned.(primary) + 1
    | _ -> Alcotest.fail "r=1 must give one primary"
  done;
  let fair = stripes / servers in
  Array.iteri
    (fun i c ->
      if c < fair / 2 || c > fair * 2 then
        Alcotest.failf "server %d owns %d of %d stripes (fair %d)" i c stripes fair)
    owned

let qcheck_placement_minimal_remap =
  (* Consistent hashing's defining property: removing one server only
     deletes it from each preference list — every other position is
     untouched, so repair after a death never moves a surviving replica. *)
  QCheck.Test.make ~name:"removing a server never remaps survivors" ~count:50
    QCheck.(pair (int_bound 100_000) (int_bound 4))
    (fun (seed, victim) ->
      let ring = Ring.Placement.create ~seed [ 0; 1; 2; 3; 4 ] in
      let live = Ring.Placement.remove ring victim in
      List.for_all
        (fun stripe ->
          let full = Ring.Placement.successors ring ~object_id:9 ~stripe in
          let shrunk = Ring.Placement.successors live ~object_id:9 ~stripe in
          shrunk = List.filter (fun n -> n <> victim) full)
        (List.init 64 Fun.id))

(* ----------------------------------------------------------------- codec *)

let qcheck_stripe_ext_roundtrip =
  QCheck.Test.make ~name:"stripe ext roundtrips" ~count:200
    QCheck.(triple (int_bound 0xFFFF_FFF) (int_bound 0xFFFE) (int_bound 0xFFFE))
    (fun (object_id, a, b) ->
      let count = 1 + max a b and index = min a b in
      let s = { Packet.Stripe.object_id; index; count } in
      Packet.Stripe.decode_ext (Packet.Stripe.encode_ext s)
      = Some s)

let test_stripe_ext_rejects_bad_magic () =
  let s = { Packet.Stripe.object_id = 1; index = 0; count = 2 } in
  let raw = Bytes.of_string (Packet.Stripe.encode_ext s) in
  Bytes.set raw 8 'X';
  Alcotest.(check bool) "corrupted magic rejected" true
    (Packet.Stripe.decode_ext (Bytes.to_string raw) = None)

let test_manifest_roundtrip () =
  let entries =
    List.init 5 (fun i ->
        {
          Packet.Stripe.stripe = { Packet.Stripe.object_id = 9; index = i; count = 5 };
          bytes = 1_000 + i;
          crc = Int32.of_int (77 * i);
        })
  in
  (match Packet.Stripe.decode_manifest (Packet.Stripe.encode_manifest entries) with
  | Some back -> Alcotest.(check bool) "entries survive" true (back = entries)
  | None -> Alcotest.fail "manifest did not decode");
  Alcotest.(check bool) "empty manifest roundtrips" true
    (Packet.Stripe.decode_manifest (Packet.Stripe.encode_manifest []) = Some [])

let test_suite_codec_carries_stripe () =
  let stripe = { Packet.Stripe.object_id = 123; index = 3; count = 8 } in
  let payload =
    Sockets.Suite_codec.encode ~data_crc:55l ~stripe ~packet_bytes:512
      ~total_bytes:4_096
      (Protocol.Suite.Blast Protocol.Blast.Selective)
  in
  match Sockets.Suite_codec.decode payload with
  | Some info ->
      Alcotest.(check bool) "stripe survives" true
        (info.Sockets.Suite_codec.stripe = Some stripe);
      Alcotest.(check bool) "crc survives" true
        (info.Sockets.Suite_codec.data_crc = Some 55l)
  | None -> Alcotest.fail "striped REQ payload did not decode"

(* ---------------------------------------------------------------- client *)

let test_stripe_bounds_partition () =
  List.iter
    (fun (total, stripes) ->
      let pieces =
        List.init stripes (fun index ->
            Ring.Client.stripe_bounds ~total ~stripes ~index)
      in
      let covered = List.fold_left (fun acc (_, len) -> acc + len) 0 pieces in
      Alcotest.(check int)
        (Printf.sprintf "%d bytes over %d stripes" total stripes)
        total covered;
      ignore
        (List.fold_left
           (fun expect (offset, len) ->
             Alcotest.(check int) "contiguous" expect offset;
             offset + len)
           0 pieces))
    [ (1_000, 1); (1_000, 3); (1_024, 16); (17, 17) ]

let test_plan_shape () =
  let ring = Ring.Placement.create ~seed:2 [ 0; 1; 2; 3 ] in
  let jobs = Ring.Client.plan ring ~object_id:4 ~total:8_192 ~stripes:4 ~replicas:2 in
  Alcotest.(check int) "stripes x replicas jobs" 8 (List.length jobs);
  for stripe = 0 to 3 do
    let mine = List.filter (fun j -> j.Ring.Client.stripe = stripe) jobs in
    let servers = List.map (fun j -> j.Ring.Client.server) mine in
    Alcotest.(check int) "two replicas" 2 (List.length servers);
    Alcotest.(check int) "on distinct servers" 2
      (List.length (List.sort_uniq compare servers));
    List.iter
      (fun j ->
        let offset, bytes =
          Ring.Client.stripe_bounds ~total:8_192 ~stripes:4 ~index:stripe
        in
        Alcotest.(check int) "offset agrees" offset j.Ring.Client.offset;
        Alcotest.(check int) "bytes agree" bytes j.Ring.Client.bytes)
      mine
  done

(* ------------------------------------------------------- manifest + plan *)

let test_manifest_quorum_and_repair_plan () =
  let data = String.init 4_000 (fun i -> Char.chr (i land 0xff)) in
  let stripes = 4 in
  let crcs = Ring.Client.stripe_crcs ~data ~stripes in
  let ring = Ring.Placement.create ~seed:8 [ 0; 1; 2 ] in
  let m = Ring.Manifest.create ~object_id:6 ~stripes in
  let entry ~server:_ ~stripe ~crc =
    {
      Packet.Stripe.stripe = { Packet.Stripe.object_id = 6; index = stripe; count = stripes };
      bytes = snd (Ring.Client.stripe_bounds ~total:4_000 ~stripes ~index:stripe);
      crc;
    }
  in
  (* Servers 0 and 1 hold everything; server 2 claims stripe 0 with the
     wrong bytes — it must not count toward replication. *)
  List.iter
    (fun server ->
      Ring.Manifest.record m ~server
        (List.init stripes (fun stripe -> entry ~server ~stripe ~crc:crcs.(stripe))))
    [ 0; 1 ];
  Ring.Manifest.record m ~server:2 [ entry ~server:2 ~stripe:0 ~crc:0xDEADl ];
  Alcotest.(check bool) "quorum 2 met" true
    (Ring.Manifest.quorum_met m ~quorum:2 ~crcs);
  Alcotest.(check bool) "quorum 3 unmet (bad crc does not count)" false
    (Ring.Manifest.quorum_met m ~quorum:3 ~crcs);
  let actions = Ring.Repair.plan ~placement:ring ~object_id:6 ~replicas:3 ~crcs m in
  Alcotest.(check int) "one re-blast per stripe" stripes (List.length actions);
  List.iter
    (fun (a : Ring.Repair.action) ->
      Alcotest.(check int) "always the non-holder" 2 a.Ring.Repair.server)
    actions;
  Alcotest.(check (list int)) "fully replicated needs nothing" []
    (List.map
       (fun (a : Ring.Repair.action) -> a.Ring.Repair.stripe)
       (Ring.Repair.plan ~placement:ring ~object_id:6 ~replicas:2 ~crcs m))

(* -------------------------------------------------- engine manifest (sim) *)

let test_engine_manifest_over_memnet () =
  let sim = Sim.create () in
  let net = Net.create ~sim ~seed:4 () in
  let clock () = Time.to_ns (Sim.now sim) in
  let server_ep = Net.bind ~port:7_100 net in
  let engine =
    Server.Engine.create
      ~ctx:
        (Sockets.Io_ctx.make ~clock
           ~tuning:
             (Protocol.Tuning.fixed ~retransmit_ns:5_000_000 ~max_attempts:10 ())
           ())
      ~lane_prefix:"r0:"
      ~transport:(Net.transport server_ep) ()
  in
  let data = String.init 3_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let crc = Packet.Checksum.crc32_string data in
  let tuning = Protocol.Tuning.fixed ~retransmit_ns:5_000_000 ~max_attempts:10 () in
  let survey = ref None in
  let env = Proc.env sim in
  Proc.spawn env (fun () -> Server.Engine.run engine);
  Proc.spawn env (fun () ->
      let ep = Net.bind net in
      let result =
        Sockets.Peer.send_via
          ~ctx:
            (Sockets.Io_ctx.make ~clock
               ~tuning:
                 (Protocol.Tuning.fixed ~retransmit_ns:5_000_000 ~max_attempts:10 ())
               ())
          ~transfer_id:31 ~packet_bytes:512
          ~stripe:{ Packet.Stripe.object_id = 31; index = 2; count = 5 }
          ~transport:(Net.transport ep) ~peer:(Net.address server_ep)
          ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data ()
      in
      Alcotest.(check bool) "striped blast succeeds" true
        (result.Sockets.Peer.outcome = Protocol.Action.Success);
      Net.close ep;
      (* Interrogate over the wire, exactly as repair does. *)
      let qep = Net.bind net in
      survey :=
        Some
          (Ring.Repair.survey
             ~ctx:(Sockets.Io_ctx.make ~clock ~tuning ())
             ~transport:(Net.transport qep)
             ~peer_of:(fun _ -> Net.address server_ep)
             ~object_id:31 [ 0 ]);
      Net.close qep;
      Server.Engine.stop engine);
  Sim.run ~until:(Time.of_ns 2_000_000_000) sim;
  (match !survey with
  | Some { Ring.Repair.answered = [ (0, [ e ]) ]; unresponsive = [] } ->
      Alcotest.(check int) "stripe index" 2 e.Packet.Stripe.stripe.Packet.Stripe.index;
      Alcotest.(check int) "stripe count" 5 e.Packet.Stripe.stripe.Packet.Stripe.count;
      Alcotest.(check int) "bytes" 3_000 e.Packet.Stripe.bytes;
      Alcotest.(check bool) "crc matches the blasted bytes" true
        (e.Packet.Stripe.crc = crc)
  | Some { Ring.Repair.answered = [ (0, l) ]; _ } ->
      Alcotest.failf "expected one manifest entry, got %d" (List.length l)
  | Some _ | None -> Alcotest.fail "manifest query went unanswered");
  Alcotest.(check int) "engine manifest size" 1 (Server.Engine.manifest_size engine);
  Alcotest.(check (list string)) "engine invariants" []
    (Server.Engine.invariant_violations engine)

(* All of a survey's MREQs share one endpoint, so an answer is the answering
   server's only by its source: server 0 answers every MREQ twice, the copy
   late enough to land while the survey still waits on server 1, which
   answers only its second MREQ. The copy must not pass for server 1's. *)
let test_survey_matches_answers_by_source () =
  let sim = Sim.create () in
  let net = Net.create ~sim ~seed:6 () in
  let clock () = Time.to_ns (Sim.now sim) in
  let env = Proc.env sim in
  let entry index =
    { Packet.Stripe.stripe = { Packet.Stripe.object_id = 5; index; count = 4 }; bytes = 100;
      crc = Int32.of_int index }
  in
  let server ~port ~skip ~copy_after_ns index =
    let ep = Net.bind ~port net in
    let transport = Net.transport ep in
    let reply =
      Packet.Codec.encode (Packet.Stripe.manifest_reply ~object_id:5 [ entry index ])
    in
    let answer peer = transport.Sockets.Transport.send ~peer ~on_outcome:ignore reply in
    Proc.spawn env (fun () ->
        let rec serve seen =
          match transport.Sockets.Transport.recv ~timeout_ns:None with
          | `Timeout -> serve seen
          | `Datagram { Sockets.Transport.from; _ } ->
              if seen >= skip then begin
                answer from;
                Option.iter
                  (fun ns ->
                    Proc.spawn env (fun () ->
                        Proc.sleep (Time.span_ns ns);
                        answer from))
                  copy_after_ns
              end;
              serve (seen + 1)
        in
        try serve 0 with Net.Closed _ -> ());
    ep
  in
  let a = server ~port:7_301 ~skip:0 ~copy_after_ns:(Some 2_000_000) 0 in
  let b = server ~port:7_302 ~skip:1 ~copy_after_ns:None 1 in
  let result = ref None in
  Proc.spawn env (fun () ->
      let ep = Net.bind net in
      result :=
        Some
          (Ring.Repair.survey
             ~ctx:
               (Sockets.Io_ctx.make ~clock
                  ~tuning:
                    (Protocol.Tuning.fixed ~retransmit_ns:1_000_000 ~max_attempts:3 ())
                  ())
             ~transport:(Net.transport ep)
             ~peer_of:(fun s -> Net.address (if s = 0 then a else b))
             ~object_id:5 [ 0; 1 ]);
      Net.close a;
      Net.close b);
  Sim.run ~until:(Time.of_ns 1_000_000_000) sim;
  match !result with
  | Some { Ring.Repair.answered; unresponsive } ->
      Alcotest.(check (list (pair int (list int))))
        "each server's own entries" [ (0, [ 0 ]); (1, [ 1 ]) ]
        (List.map
           (fun (s, es) ->
             (s, List.map (fun e -> e.Packet.Stripe.stripe.Packet.Stripe.index) es))
           answered);
      Alcotest.(check (list int)) "nobody unresponsive" [] unresponsive
  | None -> Alcotest.fail "the survey never returned"

(* ------------------------------------------------------------- DST trials *)

(* The ring is a workload of the one DST harness: same journal, ledger,
   invariant watch and flowtrace as the sender trials. *)
let ring_config ~seed ~faults = { (Dst.Harness.ring_config ~seed) with Dst.Harness.faults }

let verdict (t : Dst.Harness.trial) =
  match t.Dst.Harness.ring with
  | Some v -> v
  | None -> Alcotest.fail "a ring config ran as a sender trial"

let test_ring_dst_clean_kill () =
  let t = Dst.Harness.run (ring_config ~seed:5 ~faults:None) in
  let v = verdict t in
  Alcotest.(check (list string)) "no violations" [] t.Dst.Harness.violations;
  Alcotest.(check bool) "a server was killed" true (v.Dst.Harness.killed_member <> None);
  Alcotest.(check bool) "quorum met before repair" true v.Dst.Harness.quorum_met;
  Alcotest.(check bool) "fully replicated after repair" true v.Dst.Harness.fully_replicated;
  (* The summary counts every blast, the put's and the repair's. *)
  Alcotest.(check bool) "repair re-blasted" true (v.Dst.Harness.repair_actions > 0);
  let ok = t.Dst.Harness.completed and failed = t.Dst.Harness.failed in
  let trial_end =
    List.find
      (fun l -> Str_exists.contains_substring l "] trial end ")
      (String.split_on_char '\n' t.Dst.Harness.journal)
  in
  Scanf.sscanf trial_end "[%d] trial end blasts=%d" (fun _ blasts ->
      Alcotest.(check int) "journal: blasts = ok + failed" (ok + failed) blasts);
  Alcotest.(check bool) "summary: blasts = ok + failed" true
    (Str_exists.contains_substring
       (Format.asprintf "%a" Dst.Harness.pp_trial t)
       (Printf.sprintf "%d blasts (%d ok, %d failed)" (ok + failed) ok failed))

(* Satellite: kill-one convergence under {e every} netem scenario — quorum
   survives the death, repair restores full replication, and the journal
   is bit-for-bit identical at any jobs. *)
let test_ring_dst_every_scenario () =
  List.iter
    (fun scenario ->
      let faults =
        if Faults.Scenario.is_clean scenario then None else Some scenario
      in
      let cfg = ring_config ~seed:19 ~faults in
      let name = Faults.Scenario.name scenario in
      let t = Dst.Harness.run cfg in
      Alcotest.(check (list string))
        (Printf.sprintf "no violations under %s" name)
        [] t.Dst.Harness.violations;
      Alcotest.(check bool)
        (Printf.sprintf "repair reconverges under %s" name)
        true (verdict t).Dst.Harness.fully_replicated;
      let t' = Dst.Harness.run cfg in
      Alcotest.(check string)
        (Printf.sprintf "replay bit-for-bit under %s" name)
        t.Dst.Harness.journal t'.Dst.Harness.journal)
    Faults.Scenario.all

let test_ring_dst_jobs_invariant () =
  let cfg = ring_config ~seed:1 ~faults:(Some Faults.Scenario.lossy2) in
  let seeds = [ 1; 2; 3; 4 ] in
  let digests jobs =
    List.map
      (fun (t : Dst.Harness.trial) -> t.Dst.Harness.digest)
      (Dst.Harness.run_seeds ~jobs cfg ~seeds)
  in
  Alcotest.(check (list string)) "same digests at jobs=1 and jobs=4" (digests 1)
    (digests 4)

(* The kill rides the put's own progress, not a timer: in every trial it
   lands before the put returns and costs it at least one blast, on a clean
   wire (where the put settles within a millisecond) as under faults. *)
let test_ring_dst_kill_lands_mid_put () =
  List.iter
    (fun scenario ->
      let faults = if Faults.Scenario.is_clean scenario then None else Some scenario in
      for seed = 1 to 10 do
        let t = Dst.Harness.run (ring_config ~seed ~faults) in
        let label = Printf.sprintf "%s seed %d" (Faults.Scenario.name scenario) seed in
        let rec scan killed = function
          | [] -> Alcotest.failf "%s: no put end" label
          | l :: rest when Str_exists.contains_substring l "] churn kill server=" ->
              scan true rest
          | l :: rest -> (
              match String.index_opt l ']' with
              | Some i when Str_exists.contains_substring l "] put end " ->
                  Scanf.sscanf
                    (String.sub l (i + 2) (String.length l - i - 2))
                    "put end ok=%d failed=%d"
                    (fun _ failed ->
                      let check what = Alcotest.(check bool) (label ^ ": " ^ what) true in
                      check "killed before the put returned" killed;
                      check "the kill cost a blast" (failed > 0))
              | _ -> scan killed rest)
        in
        scan false (String.split_on_char '\n' t.Dst.Harness.journal)
      done)
    [ Faults.Scenario.clean; Faults.Scenario.lossy2; Faults.Scenario.chaos ]

(* Golden digests: the ring trial's journal pinned, so a refactor of the
   engine or its hosts has to replay it byte for byte. *)
let test_ring_dst_golden_digests () =
  let pins =
    [
      (1, "50e2bae9104569e4ec3f771bdd8a34ed");
      (2, "5645e2bbb388b576132dede33c6fa654");
      (3, "1446ced6723c65b41d7dca4958428e56");
    ]
  in
  let trials =
    Dst.Harness.run_seeds ~jobs:1 (Dst.Harness.ring_config ~seed:1)
      ~seeds:(List.map fst pins)
  in
  List.iter2
    (fun (seed, digest) (t : Dst.Harness.trial) ->
      Alcotest.(check string) (Printf.sprintf "seed %d journal" seed) digest
        t.Dst.Harness.digest)
    pins trials

(* A clean ring with no kill: every blast lands, so each is one verified
   server delivery and one [done] in the shared flowtrace — the ring
   engines report through the same channels as the sender workload's. *)
let test_ring_dst_clean_steady () =
  let t =
    Dst.Harness.run { (ring_config ~seed:7 ~faults:None) with Dst.Harness.churn = Steady }
  in
  let v = verdict t in
  Alcotest.(check (list string)) "no violations" [] t.Dst.Harness.violations;
  Alcotest.(check int) "no member killed" 0 t.Dst.Harness.killed;
  Alcotest.(check int) "every blast succeeds" t.Dst.Harness.attempted t.Dst.Harness.completed;
  Alcotest.(check int) "one blast per stripe replica"
    (Dst.Harness.default_ring.Dst.Harness.stripes * Dst.Harness.default_ring.Dst.Harness.replicas)
    v.Dst.Harness.put_blasts;
  Alcotest.(check int) "server totals match the blasts" t.Dst.Harness.completed
    t.Dst.Harness.server_completed;
  let dones =
    List.length
      (List.filter
         (fun l -> Str_exists.contains_substring l "\"ev\":\"done\"")
         (String.split_on_char '\n' t.Dst.Harness.flowtrace))
  in
  Alcotest.(check int) "one flowtrace done per blast" t.Dst.Harness.completed dones

(* The activity span ends with the last event before the trailer, not at
   the horizon the trailer is stamped with. *)
let test_ring_dst_activity_span () =
  let cfg = ring_config ~seed:1 ~faults:None in
  let t = Dst.Harness.run cfg in
  Alcotest.(check bool) "span below the horizon" true
    (t.Dst.Harness.virtual_ns < cfg.Dst.Harness.horizon_ns);
  let lines = String.split_on_char '\n' t.Dst.Harness.journal in
  let rec before_trailer = function
    | l :: (next :: _ as rest) ->
        if Str_exists.contains_substring next "] net delivered=" then l
        else before_trailer rest
    | _ -> Alcotest.fail "journal has no trailer"
  in
  let last = before_trailer lines in
  let stamp = int_of_string (String.sub last 1 (String.index last ']' - 1)) in
  Alcotest.(check int) "span is the last pre-trailer stamp" stamp t.Dst.Harness.virtual_ns

(* The ring hosts one engine per member and kills a member for good: churn
   that restarts or reuses, and sharded members, have no meaning there. *)
let test_ring_dst_refuses_sender_churn () =
  let base = Dst.Harness.ring_config ~seed:1 in
  let refused label cfg message =
    Alcotest.check_raises label (Invalid_argument message) (fun () ->
        ignore (Dst.Harness.run cfg : Dst.Harness.trial))
  in
  List.iter
    (fun churn ->
      refused (Dst.Harness.churn_name churn)
        { base with Dst.Harness.churn }
        "Dst: the ring workload takes steady or kill churn")
    [ Dst.Harness.Reuse; Dst.Harness.Restart; Dst.Harness.Mixed ];
  refused "two shards"
    { base with Dst.Harness.shards = 2 }
    "Dst: the ring workload runs one engine per member (shards = 1)"

(* --------------------------------------------------------- real-UDP fleet *)

let test_fleet_put_kill_repair () =
  let seed = 6 in
  let fleet =
    Server.Group.create ~binding:Server.Group.Own_ports ~members:3 ~seed ()
  in
  Server.Group.start fleet;
  Fun.protect
    ~finally:(fun () ->
      Server.Group.stop fleet;
      Server.Group.join fleet)
    (fun () ->
      let placement = Ring.Placement.create ~seed (Server.Group.alive fleet) in
      let peer_of = Server.Group.address fleet in
      let data = String.init 16_384 (fun i -> Char.chr ((i * 131) land 0xff)) in
      let ctx max_attempts =
        Sockets.Io_ctx.make
          ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:10_000_000 ~max_attempts ())
          ()
      in
      let put =
        Ring.Client.over_udp (fun transport ->
            Ring.Client.put ~ctx:(ctx 20) ~transport ~placement ~peer_of ~object_id:9
              ~stripes:4 ~replicas:2 ~quorum:2 ~data ())
      in
      Alcotest.(check bool) "write quorum met" true put.Ring.Client.quorum_met;
      (* The fleet's merged snapshot sees every stripe replica. *)
      let snap = Server.Group.snapshot fleet in
      (match Obs.Json.member "manifest_stripes" snap with
      | Some j ->
          Alcotest.(check (option int)) "fleet manifest covers the plan" (Some 8)
            (Obs.Json.to_int j)
      | None -> Alcotest.fail "merged snapshot lacks manifest_stripes");
      (* Kill one member for good; repair re-homes its stripes. *)
      Server.Group.kill fleet 0;
      Alcotest.(check (list int)) "members 1 and 2 live" [ 1; 2 ]
        (Server.Group.alive fleet);
      let live = Ring.Placement.create ~seed (Server.Group.alive fleet) in
      let report =
        Ring.Client.over_udp (fun transport ->
            Ring.Repair.run ~ctx:(ctx 5) ~transport ~placement:live ~peer_of ~object_id:9
              ~stripes:4 ~replicas:2 ~data ())
      in
      Alcotest.(check bool) "repair restores full replication" true
        report.Ring.Repair.fully_replicated;
      Alcotest.(check (list string)) "fleet invariants" []
        (Server.Group.invariant_violations fleet))

let () =
  Alcotest.run "ring"
    [
      ( "hash",
        [
          Alcotest.test_case "steering formula pinned" `Quick test_hash_steer_pinned;
          Alcotest.test_case "mix is injective-ish" `Quick test_hash_mix_spreads;
          QCheck_alcotest.to_alcotest qcheck_mix2_balance;
        ] );
      ( "placement",
        [
          Alcotest.test_case "replicas distinct" `Quick test_placement_replicas_distinct;
          Alcotest.test_case "construction order-insensitive" `Quick
            test_placement_deterministic;
          Alcotest.test_case "primary ownership balanced" `Quick test_placement_balance;
          QCheck_alcotest.to_alcotest qcheck_placement_minimal_remap;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest qcheck_stripe_ext_roundtrip;
          Alcotest.test_case "bad magic rejected" `Quick test_stripe_ext_rejects_bad_magic;
          Alcotest.test_case "manifest roundtrips" `Quick test_manifest_roundtrip;
          Alcotest.test_case "REQ payload carries stripe" `Quick
            test_suite_codec_carries_stripe;
        ] );
      ( "client",
        [
          Alcotest.test_case "stripe bounds partition" `Quick test_stripe_bounds_partition;
          Alcotest.test_case "plan shape" `Quick test_plan_shape;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "quorum and repair plan" `Quick
            test_manifest_quorum_and_repair_plan;
        ] );
      ( "engine",
        [
          Alcotest.test_case "manifest over memnet" `Quick
            test_engine_manifest_over_memnet;
          Alcotest.test_case "survey matches answers by source" `Quick
            test_survey_matches_answers_by_source;
        ] );
      ( "dst",
        [
          Alcotest.test_case "clean kill-one trial" `Quick test_ring_dst_clean_kill;
          Alcotest.test_case "every netem scenario reconverges" `Slow
            test_ring_dst_every_scenario;
          Alcotest.test_case "digests invariant under jobs" `Quick
            test_ring_dst_jobs_invariant;
          Alcotest.test_case "the kill lands mid-put" `Quick
            test_ring_dst_kill_lands_mid_put;
          Alcotest.test_case "journals match golden digests" `Quick
            test_ring_dst_golden_digests;
          Alcotest.test_case "clean steady ring under the full oracle" `Quick
            test_ring_dst_clean_steady;
          Alcotest.test_case "activity span ends before the trailer" `Quick
            test_ring_dst_activity_span;
          Alcotest.test_case "sender-only churn and shards are refused" `Quick
            test_ring_dst_refuses_sender_churn;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "put, kill, repair over real UDP" `Quick
            test_fleet_put_kill_repair;
        ] );
    ]
