(** Whole-system deterministic simulation (DST).

    The FoundationDB move (SNIPPETS snippet 1) applied to this server: the
    {e entire} system — real [Server.Engine]s and real {!Sockets.Peer}
    senders — runs as {!Eventsim} processes over a {!Memnet} wire under
    virtual time, with the fault schedule, the churn schedule, the
    workload, and the admission pressure all derived from one root seed. No
    wall clock, no socket, no thread: one integer replays the identical run
    bit-for-bit, violations included, at any [--jobs].

    Two workloads share the journal, the clock, the engines and their
    bookkeeping, the invariant watch, the trailer checks and the trial
    record:
    - {!Senders}: N independent senders, each attempting a few transfers
      against one engine (or a sharded group of them);
    - {!Ring}: the serving ring client — {!Ring.Client.put} of one
      striped, replicated object across N engines on their own ports, then
      {!Ring.Repair.run} on the live ring — each call on a memnet endpoint
      of its own.

    Each trial of either workload asserts, continuously and at the end:
    - {e verified delivery or clean failure}: every sender finishes with a
      typed outcome (or is deliberately killed), and the delivery oracle
      {!Server.Ledger} — the one [Server.Swarm] checks over real UDP —
      holds: every server-side [Success] carries a [Verified] whole-segment
      CRC, every sender (and every ring blast) stays within its attempt
      bound, and every sender-side success matches a server-side verified
      delivery of the same bytes (a ring blast's are its stripe's);
    - {e engine invariants} ([Server.Engine.invariant_violations]) on a
      periodic virtual tick and again at the horizon: flow-table cap and
      coherence, timer-heap coverage of every live deadline,
      admission-totals balance;
    - the {e flowtrace grammar} once every engine has wound down: exactly
      one terminal state per flow, nothing recorded past it;
    - {e no hangs}: a trial that reaches its virtual horizon with a transfer
      stuck longer than the protocol's worst-case bound is a violation, as
      is a drained event queue with unresolved senders (a lost wake-up), or
      a ring client that has not finished.

    The ring workload also asserts:
    - no {e false durability claim}: whenever the put's own outcomes
      reached the write quorum for every stripe, the post-kill survey
      confirms it (under a hostile enough wire a blast at a live server
      may exhaust its attempts and fail cleanly — then the put already
      reported the object not durable, and no claim was made);
    - the repair pass converges — every stripe back at full replication
      {e on the live ring}, as judged by a fresh survey, within three
      rounds.

    Churn schedules: {!Kill} closes sender endpoints mid-transfer — in a
    ring, it stops a member for good mid-put, driven by the put's progress
    ({!Ring.Client.kill_mid_put}); {!Reuse} rebinds the victim's port
    immediately and throws a colliding [(address, transfer id)] REQ at the
    engine's flow table; {!Restart} stops the engine with flows in the
    table and rebinds its port after an outage. {!Mixed} interleaves all
    three. The ring workload takes {!Steady} or {!Kill} only. *)

type churn = Steady | Kill | Reuse | Restart | Mixed

val churn_name : churn -> string
val churn_of_string : string -> churn option
val all_churns : churn list

type ring = {
  servers : int;  (** ring members, each an engine on its own port *)
  stripes : int;
  replicas : int;
  quorum : int;  (** write quorum; must survive one death under {!Kill} *)
  object_bytes : int;
}

type workload = Senders | Ring of ring

type config = {
  seed : int;
  churn : churn;
  faults : Faults.Scenario.t option;  (** wire fault pipeline; [None] = clean *)
  senders : int;  (** {!Senders} only *)
  transfers : int;  (** transfers each sender attempts; {!Senders} only *)
  max_flows : int;  (** engine admission cap; below [senders] exercises REJ *)
  shards : int;
      (** engine shard count (default 1 — the classic single engine).
          [N > 1] runs N engine processes as members of one
          {!Memnet.Net.bind_shard} group on the server port: datagrams are
          steered by a pure, seeded hash of the source address — the
          REUSEPORT placement made explicit — so a sharded run is exactly
          as replayable as a single-engine one. Churn's [Restart] picks its
          victim shard from the seeded stream, and each shard restarts into
          its own slot. The ring workload takes 1. *)
  bytes_min : int;  (** {!Senders} only *)
  bytes_max : int;  (** {!Senders} only *)
  think_min_ns : int;  (** {!Senders} only *)
  think_max_ns : int;  (** seeded idle gap between a sender's transfers *)
  packet_bytes : int;
  tuning : Protocol.Tuning.t;
      (** one regime for every endpoint — engines advertise budgets from it,
          senders run fixed or adaptive trains per its variant; printed into
          the sender journal's header so a trial is self-describing *)
  suites : Protocol.Suite.t list;
      (** the suite axis: transfer [i] (from 1) of sender [k] (from 0) runs
          [suites.((k + i) mod n)], and reuse replacement [s] runs
          [suites.(s mod n)] — no RNG draw, so the default
          [[Blast Go_back_n]] keeps the classic event stream. The journal
          header lists the suites only when they differ from the default.
          Empty is [Invalid_argument]. Ring blasts are always go-back-n. *)
  latency_ns : int;  (** memnet propagation delay *)
  horizon_ns : int;  (** virtual-time budget; the hang backstop *)
  workload : workload;
}

val default_config : seed:int -> config
(** The {!Senders} workload: 16 senders x 3 go-back-n blasts of 2..32 KiB
    with 0.2..2 s think time, engine capped at 12 flows (per shard), chaos
    faults, mixed churn, one shard, 60 virtual seconds. *)

val default_ring : ring
(** 5 servers, 8 stripes x 3 replicas with quorum 2, a 64 KiB object. *)

val ring_config : seed:int -> config
(** The {!Ring} workload of {!default_ring}: one member killed
    mid-transfer, a clean wire, 64 flows per engine; packet size, tuning,
    latency and horizon as {!default_config}. *)

val validate : config -> unit
(** Raises [Invalid_argument] (["Dst: ..."]) on a configuration no trial
    can run: a non-positive horizon or shard count, a negative [max_flows];
    for {!Senders} non-positive [senders] or [transfers], a bad size range
    or an empty suite list; for {!Ring} a churn other than [Steady] or
    [Kill], [shards <> 1], fewer than 2 servers, no stripes, replicas
    outside [1, servers], a quorum outside [1, replicas] or one that cannot
    survive the [Kill], or fewer object bytes than stripes. {!run} calls
    it first. *)

type ring_verdict = {
  killed_member : int option;  (** the victim, when [Kill] fired *)
  put_blasts : int;  (** the put's sub-transfers (repair excluded) *)
  quorum_met : bool;  (** surveyed before repair *)
  repair_actions : int;
  repair_rounds : int;
  fully_replicated : bool;  (** surveyed after repair, live ring *)
}

type trial = {
  seed : int;
  churn : churn;
  fault_name : string;
  attempted : int;  (** transfers started by senders; ring blasts, repair included *)
  completed : int;  (** sender-side [Success] *)
  rejected : int;
  failed : int;
      (** clean typed failures (unreachable / attempts exhausted); every
          ring blast that did not succeed *)
  killed : int;  (** participants removed by churn: senders, or a ring member *)
  restarts : int;  (** engine incarnations beyond the first *)
  superseded : int;  (** stale flows settled on address-reuse collisions *)
  server_completed : int;  (** summed over every engine and incarnation *)
  server_aborted : int;
  virtual_ns : int;
      (** virtual time of the last event before the trailer — the activity
          span, not the horizon *)
  events : int;  (** journal lines *)
  violations : string list;  (** empty = the run upheld every property *)
  journal : string;  (** the full event journal; bit-for-bit replayable *)
  digest : string;  (** MD5 hex of [journal] — the replay fingerprint *)
  flowtrace : string;
      (** {!Obs.Flowtrace} lifecycle export (JSONL), virtual-time stamped
          and shared across engines and incarnations ([trace_epoch] =
          generation) — replays bit-for-bit at any [jobs] *)
  flight : string;
      (** the engines' {!Obs.Recorder} flight ring as JSONL; [""] unless
          the trial has violations *)
  ring : ring_verdict option;  (** [Some] exactly for the {!Ring} workload *)
}

val run : config -> trial
(** One whole-system trial. Pure function of [config]: equal configs yield
    equal trials, journal bytes included. Raises as {!validate}. *)

val run_seeds : ?jobs:int -> config -> seeds:int list -> trial list
(** One trial per seed ([config.seed] is overridden), distributed over an
    [Exec.Pool]; results in [seeds] order, so the output is identical at any
    [jobs] — each trial owns its simulation, its network, and its engines. *)

val pp_trial : Format.formatter -> trial -> unit
(** One summary line (no journal), in the workload's own shape. *)
