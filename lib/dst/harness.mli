(** Whole-system deterministic simulation (DST).

    The FoundationDB move (SNIPPETS snippet 1) applied to this server: the
    {e entire} system — a real [Server.Engine], N real {!Sockets.Peer}
    senders — runs as {!Eventsim} processes over a {!Memnet} wire under
    virtual time, with the fault schedule, the churn schedule, every sender's
    workload, and the admission pressure all derived from one root seed. No
    wall clock, no socket, no thread: one integer replays the identical run
    bit-for-bit, violations included, at any [--jobs].

    Each trial asserts, continuously and at the end:
    - {e verified delivery or clean failure}: every sender finishes with a
      typed outcome (or is deliberately killed), and the delivery oracle
      {!Server.Ledger} — the one [Server.Swarm] checks over real UDP —
      holds: every server-side [Success] carries a [Verified] whole-segment
      CRC, every sender stays within its attempt bound, and every
      sender-side success matches a server-side verified delivery of the
      same bytes;
    - {e engine invariants} ([Server.Engine.invariant_violations]) on a
      periodic virtual tick: flow-table cap and coherence, timer-heap
      coverage of every live deadline, admission-totals balance;
    - {e no hangs}: a trial that reaches its virtual horizon with a transfer
      stuck longer than the protocol's worst-case bound is a violation, as
      is a drained event queue with unresolved senders (a lost wake-up).

    Churn schedules: {!Kill} closes sender endpoints
    mid-transfer; {!Reuse} rebinds the victim's port immediately and throws
    a colliding [(address, transfer id)] REQ at the engine's flow table;
    {!Restart} stops the engine with flows in the table and rebinds its
    port after an outage. {!Mixed} interleaves all three. *)

type churn = Steady | Kill | Reuse | Restart | Mixed

val churn_name : churn -> string
val churn_of_string : string -> churn option
val all_churns : churn list

type config = {
  seed : int;
  churn : churn;
  faults : Faults.Scenario.t option;  (** wire fault pipeline; [None] = clean *)
  senders : int;
  transfers : int;  (** transfers each sender attempts *)
  max_flows : int;  (** engine admission cap; below [senders] exercises REJ *)
  shards : int;
      (** engine shard count (default 1 — the classic single engine).
          [N > 1] runs N engine processes as members of one
          {!Memnet.Net.bind_shard} group on the server port: datagrams are
          steered by a pure, seeded hash of the source address — the
          REUSEPORT placement made explicit — so a sharded run is exactly
          as replayable as a single-engine one. Churn's [Restart] picks its
          victim shard from the seeded stream, and each shard restarts into
          its own slot. *)
  bytes_min : int;
  bytes_max : int;
  think_min_ns : int;
  think_max_ns : int;  (** seeded idle gap between a sender's transfers *)
  packet_bytes : int;
  tuning : Protocol.Tuning.t;
      (** one regime for every endpoint — engines advertise budgets from it,
          senders run fixed or adaptive trains per its variant; printed into
          the journal header so a trial is self-describing *)
  suites : Protocol.Suite.t list;
      (** the suite axis: transfer [i] (from 1) of sender [k] (from 0) runs
          [suites.((k + i) mod n)], and reuse replacement [s] runs
          [suites.(s mod n)] — no RNG draw, so the default
          [[Blast Go_back_n]] keeps the classic event stream. The journal
          header lists the suites only when they differ from the default.
          Empty is [Invalid_argument]. *)
  latency_ns : int;  (** memnet propagation delay *)
  horizon_ns : int;  (** virtual-time budget; the hang backstop *)
}

val default_config : seed:int -> config
(** 16 senders x 3 go-back-n blasts of 2..32 KiB with 0.2..2 s think time,
    engine capped at 12 flows (per shard), chaos faults, mixed churn, one
    shard, 60 virtual seconds. *)

type trial = {
  seed : int;
  churn : churn;
  fault_name : string;
  attempted : int;  (** transfers started by senders *)
  completed : int;  (** sender-side [Success] *)
  rejected : int;
  failed : int;  (** clean typed failures (unreachable / attempts exhausted) *)
  killed : int;  (** senders removed by churn *)
  restarts : int;  (** engine incarnations beyond the first *)
  superseded : int;  (** stale flows settled on address-reuse collisions *)
  server_completed : int;
  server_aborted : int;
  virtual_ns : int;  (** virtual time of the last event — the activity span *)
  events : int;  (** journal lines *)
  violations : string list;  (** empty = the run upheld every property *)
  journal : string;  (** the full event journal; bit-for-bit replayable *)
  digest : string;  (** MD5 hex of [journal] — the replay fingerprint *)
  flowtrace : string;
      (** {!Obs.Flowtrace} lifecycle export (JSONL), virtual-time stamped
          and shared across engine incarnations ([trace_epoch] = generation)
          — replays bit-for-bit at any [jobs], and once the engine wound
          down its lifecycle grammar is asserted as part of [violations] *)
  flight : string;
      (** the engine's {!Obs.Recorder} flight ring as JSONL; [""] unless
          the trial has violations *)
}

val run : config -> trial
(** One whole-system trial. Pure function of [config]: equal configs yield
    equal trials, journal bytes included. *)

val run_seeds : ?jobs:int -> config -> seeds:int list -> trial list
(** One trial per seed ([config.seed] is overridden), distributed over an
    [Exec.Pool]; results in [seeds] order, so the output is identical at any
    [jobs] — each trial owns its simulation, its network, and its engine. *)

val pp_trial : Format.formatter -> trial -> unit
(** One summary line (no journal). *)
