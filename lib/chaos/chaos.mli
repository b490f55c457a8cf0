(** Randomized crash/loss/partition schedules with invariant checking.

    The recovery subsystem's claim (§5: "crashes can be mapped to metric
    failures if the database can remember messages that need to be sent
    out upon recovery") is easy to satisfy on a hand-picked scenario and
    easy to break on an adversarial one.  This harness generates the
    adversarial ones mechanically: from a {!spec}, a {!schedule} of
    workload operations and injections is derived — a pure function of
    the spec, so a seed names a schedule forever — then {!run} executes
    it and checks invariants.  Three workload bodies share that one
    surface:

    - {b payroll / bank}: the same operations run on a clean network
      (the {e oracle}) and under crashes, loss and partition windows.
      Nothing the oracle did may be lost or done twice, the transport
      must drain, and — under a durable configuration — every crash
      must surface as a {e metric} failure notice, never a logical one.
      Windows respect the protocol's tolerances by construction (one
      site down at a time; loss and partitions shorter than the
      retransmission chain), but crash {e durations} may exceed the
      give-up horizon: without a journal those crashes lose messages,
      with one they are re-queued on restart.
    - {b heal} (payroll): the adversary is the §5 [Silent_drop] failure
      (a notify channel that dies without a failure notice) plus one
      rollout that loses every guarantee of a [required] copy pair,
      under streaming monitors.  Staleness must be detected within κ +
      one tick, no read served from a copy its monitor calls stale, the
      bad cutover rolled back (journaled), and every quarantined copy
      probed back to service.
    - {b ring}: a cross-shard notification ring on the multi-domain
      fabric ({!Cm_shard.Shard.Fabric}); injections land on even sites
      and crashes on odd ones, so one shard keeps firing while another
      holds a crashed site, which replays its shard-local journal on
      restart.  The report omits the shard count, so it is
      byte-identical across shard counts for one spec.

    Every run and report is deterministic: the same spec yields
    byte-identical {!report_to_string} output, which CI diffs
    literally. *)

(** The workload a schedule drives.  [Ring] runs on the sharded fabric
    over [sites] sites (at least 4). *)
type workload = Payroll | Bank | Ring of { sites : int }

val workload_to_string : workload -> string

val workload_of_string : string -> workload option
(** ["payroll"] or ["bank"]; the ring is chosen by [shards]. *)

type spec = {
  seed : int;
  events : int;  (** workload operations to inject *)
  crashes : int;  (** crash/restart cycles across the run (ignored by heal) *)
  crash_min_len : float;  (** shortest crash window, seconds (payroll/bank) *)
  crash_max_len : float;
      (** longest crash window — above the reliable layer's ~75 s
          retransmission chain this separates journaled from
          journal-free configurations *)
  durability : Cm_core.Journal.durability;
  chaos_workload : workload;
  churn : int;
      (** live rule-program replacements ({!Cm_core.Evolution} cutovers)
          interleaved with the faults.  Payroll only; each cutover swaps
          the whole propagation strategy for a different variant
          (propagate / propagate-cached / poll).  Churn happens in the
          oracle run too — it is workload, not fault — so the
          lost/duplicate-firing comparison still bites.  Adds two
          invariants: every churned-out epoch drains and retires with
          zero stale rejections, and every guarantee the {!Derive}
          prover claims for {e all} epochs of the run holds on the
          faulty run's observed timeline.  Ignored by heal. *)
  heal : bool;
      (** run the self-healing schedule instead of the oracle
          comparison (payroll only), under
          {!Cm_core.System.Config.monitor} *)
  shards : int;
      (** fabric shards (OCaml domains) for the ring, at least 1; 0 for
          payroll and bank *)
}

val default_spec : spec
(** Seed 42, 200 events, 5 crashes of 10–60 s, payroll workload,
    [Journal_with_checkpoint], no churn, no heal, no shards. *)

val validate : spec -> (unit, string) result
(** [Error reason] for the combinations that cannot run: negative
    counts; churn or heal on bank; shards on payroll or bank; a ring
    with fewer than 1 shard or 4 sites, or with heal or churn.
    {!schedule} and {!run} raise [Invalid_argument] on such a spec. *)

(** One timed injection, in absolute simulation time.  Payroll and bank
    schedules hold crashes, loss and partition windows (applied to the
    faulty run only); the ring holds crashes and one partitioned edge;
    heal holds silent-drop windows on the source translator, the bad
    rollout's cutover instant, and the post-window flush that refreshes
    every employee so quarantined copies can recover. *)
type fault =
  | Crash of { site : string; at : float; restart_at : float }
  | Loss_window of { at : float; until : float; drop : float; dup : float }
  | Partition of { at : float; until : float }
  | Silent_drop of { at : float; until : float }
  | Bad_cutover of { at : float }
  | Flush of { at : float }

(** One scheduled rule-program replacement, applied to oracle and faulty
    run alike. *)
type churn_event = { ch_at : float; ch_variant : string }

(** One workload operation: an update of employee / balance side / ring
    site [op_slot] to [op_value]. *)
type op = { op_at : float; op_slot : int; op_value : int }

type schedule = {
  ops : op list;
  inject_end : float;  (** time of the last workload operation *)
  faults : fault list;
  churns : churn_event list;
  horizon : float;  (** time the run quiesces at *)
}

val schedule : spec -> schedule
(** Derived, not run; pure in the spec.  [report.schedule] of a {!run}
    with the same spec is this exact value.  The PRNG is split once per
    concern in a fixed order (ops, faults, churn, heal) and the ring
    draws from keyed streams, so adding a concern never shifts another's
    draws. *)

val static_rules :
  workload ->
  Cm_rule.Rule.t list * Cm_rule.Rule.t list * Cm_rule.Item.locator
(** (interface rules, strategy rules, locator) of a fault-free instance
    of the workload — what [cmtool] feeds {!Cm_analysis.Analysis} as a
    preflight check before running chaos. *)

type invariant = { inv_name : string; ok : bool; detail : string }

(** Churn measurements of a payroll run with [churn > 0]. *)
type epochs = {
  cutovers : int;  (** epoch cutovers performed *)
  epoch_retirements : int;
  stale_epoch_rejections : int;
      (** firings rejected at a shell for arriving after their epoch
          retired — scheduled retirement waits out the drain, so this is
          0 on a passing run *)
  both_epoch_guarantees : string list;
      (** guarantee names the prover claims under {e every} epoch of the
          run — the set held against the observed timeline *)
  both_epoch_violations : string list;
}

(** What one payroll or bank run measured after it quiesced. *)
type tally = {
  fires : int;  (** rule firings executed *)
  logical_notices : int;
  metric_notices : int;
  transport_pending : int;  (** unacknowledged envelopes after quiescence *)
  transport : Cm_core.Reliable.stats;
  endpoint_down_at_send : int;
  endpoint_down_in_flight : int;
  journal_appends : int;
  journal_checkpoints : int;
  replayed_records : int;
  final_state : (string * float) list;
      (** payroll: target salaries; bank: balances and limits *)
  follows_valid : bool;
      (** payroll: the declared Follows guarantee is still valid (true
          on bank, which declares none) *)
  safety_violations : int;
      (** bank: sampled instants where X ≤ Y did not hold (0 on
          payroll, which samples none).  Asserted only on crash-free
          schedules: a limit grant delivered after a crash can be stale,
          a demarcation-encoding limitation recovery cannot repair. *)
  epochs : epochs option;  (** [Some] iff the schedule churns *)
}

(** What the workload body measured. *)
type outcome =
  | Compared of {
      oracle : tally;  (** the clean run *)
      chaos : tally;  (** the faulty run *)
      lost_firings : int;  (** oracle firings the faulty run never executed *)
      duplicate_firings : int;  (** faulty-run executions beyond the oracle's *)
    }
  | Healed of {
      kappa : float;  (** the copy's proved κ (staleness bound) *)
      reads : int;  (** routed reads issued by the open-loop population *)
      replica_reads : int;
      master_reads : int;
      poll_reads : int;
      stale_serves : int;
          (** reads served from a copy whose monitor reported it stale
              at serve time — 0 on a passing run, audited from outside
              the router via {!Cm_route.Route.on_decision} *)
      quarantines : int;  (** transitions into quarantine *)
      probes : int;  (** half-open re-admission probes issued *)
      readmissions : int;  (** probes that returned the copy to service *)
      stale_onsets : float list;
          (** detection times of staleness transitions, ascending — each
              must fall within some window's
              [[start, end + κ + tick + 1.0]] *)
      stream_violations : int;  (** point violations streamed live *)
      rollbacks : int;  (** {!Cm_core.Evolution} auto-rollbacks (want 1) *)
      rollback_journaled : bool;
          (** an {!Cm_core.Journal.record.Epoch_rollback} record landed
              in every site's journal (vacuously true without
              durability) *)
      final_epoch : int;
      fold_mismatches : string list;
          (** streamed verdicts that disagree with the post-hoc
              {!Cm_core.Guarantee.check} fold — empty on a passing run *)
    }
  | Sharded of {
      digest : string;  (** {!Cm_shard.Shard.Fabric.trace_digest} *)
      trace_events : int;  (** merged trace events across shards *)
      fires : int;
      restarts : int;
      recovered_crashes : int;
      replayed : int;  (** journal records replayed on restart *)
      live_during_crash : int;
          (** events at live sites strictly inside crash windows — the
              "other shards keep firing" witness, asserted positive *)
    }

type report = {
  spec : spec;
  schedule : schedule;
  outcome : outcome;
  invariants : invariant list;
}

val run : spec -> report
(** Derive the schedule, run the workload body under it and check
    invariants.  Pure in the spec: no wall clock, no global state.
    @raise Invalid_argument when {!validate} refuses the spec. *)

val passed : report -> bool
(** All invariants hold. *)

val report_to_string : report -> string
(** Canonical multi-line report, stable across runs of the same spec
    (and, for the ring, across shard counts). *)
