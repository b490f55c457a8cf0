(** Per-site write-ahead log backing crash recovery.

    §5 of the paper maps crashes to {e metric} failures "if the database
    ... can 'remember' messages that need to be sent out upon recovery".
    This module is that memory: an append-only stream of records per
    site — events received, rule-firing decisions, CM-store writes, the
    reliable layer's outbound/ack/delivery state, and incarnation
    changes — plus optional checkpoints that snapshot the volatile state
    so replay after a crash is bounded (the ARIES discipline, reduced to
    the CM-Shell's event/firing model).

    The journal models stable storage: it is owned by the recovery
    manager and deliberately survives {!Cm_net.Net.crash_site}, which
    wipes only volatile state.  Appends are deterministic in simulation
    order and {!to_string} is canonical, so two runs of the same seed
    produce byte-identical journals — the replay-determinism tests rely
    on this.

    Records are stored as values.  Only {!record_to_string} and
    {!to_string} render them; {!append} renders nothing but checkpoints
    (for the [journal_checkpoint_bytes] series).  This module is also
    the only reader of its records: recovery, re-queueing and monitor
    relearn go through {!replay} and {!events}. *)

(** How much a {!System} remembers across crashes.  [None] is the
    pre-recovery behaviour: a crash loses in-flight traffic and volatile
    state, surfacing as a {e logical} failure.  [Journal] records enough
    to replay; [Journal_with_checkpoint] additionally snapshots volatile
    state periodically so replay cost stays bounded. *)
type durability = None | Journal | Journal_with_checkpoint

val durability_to_string : durability -> string
(** ["none"], ["journal"], ["journal+checkpoint"]. *)

val durability_of_string : string -> durability option

(** Transport state towards/from one peer as frozen by a checkpoint:
    sender-side next message id and unacknowledged messages, and
    receiver-side epoch, next expected sequence number, and the
    cross-incarnation duplicate-suppression set. *)
type link_state = {
  peer : string;
  next_mid : int;
  unacked : (int * int * int * Msg.t) list;  (** mid, epoch, seq, payload *)
  in_epoch : int;
  in_expected : int;
  delivered_mids : int list;
}

(** Lifecycle phase of a rule epoch (see {!Cm_core.Evolution}) as frozen
    by a checkpoint. *)
type epoch_phase = Ep_proposed | Ep_active | Ep_draining | Ep_retired

val epoch_phase_to_string : epoch_phase -> string

type record =
  | Event of { time : float; site : string; desc : Cm_rule.Event.desc }
      (** An event recorded at [site] (trace-level memory), kept as the
          descriptor itself so replay reads back exactly what was
          recorded. *)
  | Fire_sent of {
      time : float;
      rule_id : string;
      to_site : string;
      trigger_id : int;
    }  (** A firing decision made by this site's shell. *)
  | Store_write of { time : float; item : Cm_rule.Item.t; value : Cm_rule.Value.t }
      (** A write to the shell's volatile {!Store}, logged before it is
          applied (write-ahead), so recovery can rebuild the store. *)
  | Outbound of {
      time : float;
      to_site : string;
      mid : int;
      epoch : int;
      seq : int;
      payload : Msg.t;
    }
      (** A message handed to the reliable layer — the §5 "message that
          needs to be sent out upon recovery" until a matching
          {!Acked} appears. *)
  | Acked of { time : float; to_site : string; mid : int }
  | Delivered of {
      time : float;
      from_site : string;
      epoch : int;
      seq : int;
      mid : int;
      applied : bool;
    }
      (** An inbound sequence slot consumed; [applied = false] means the
          payload was suppressed as a cross-epoch duplicate but the slot
          still advances the expected sequence number on replay. *)
  | Restarted of { time : float; incarnation : int }
  | Epoch_proposed of { time : float; epoch : int; rules : Cm_rule.Rule.t list }
      (** A rule epoch staged at this site, with its full program —
          journaled write-ahead so a crash mid-transition can replay the
          proposal. *)
  | Epoch_cutover of { time : float; epoch : int }
      (** [epoch] became the active program; the previously active epoch
          began draining. *)
  | Epoch_retired of { time : float; epoch : int }
      (** [epoch] stopped draining; firings tagged with it are rejected
          from now on. *)
  | Epoch_rollback of {
      time : float;
      from_epoch : int;
      to_epoch : int;
      reason : string;
    }
      (** The cutover to [from_epoch] regressed a required guarantee and
          was undone by re-proposing [to_epoch]'s program under a fresh
          epoch number.  Logged write-ahead so a crash mid-rollback is
          explainable from the log; the epoch-state effects themselves
          replay via the rollback's own {!Epoch_proposed} /
          {!Epoch_cutover} records. *)
  | Checkpoint of {
      time : float;
      incarnation : int;
      store : (Cm_rule.Item.t * Cm_rule.Value.t) list;
      links : link_state list;
      rule_epochs : (int * epoch_phase * Cm_rule.Rule.t list) list;
          (** Epoch state at checkpoint time, ascending by number.  Empty
              for a site still running only the base program; epoch 0,
              whose rules are configuration rather than journaled state,
              appears with an empty rule list and only when no longer
              simply active. *)
      active_epoch : int;
    }

val record_kind : record -> string
(** Stable lowercase tag, used as the [kind] label of the
    [journal_appends] counter. *)

val record_to_string : record -> string
(** Canonical one-line rendering. *)

type t

val append : t -> record -> unit
(** Appends are observable as [journal_appends] counters (labels [site],
    [kind]); checkpoint records additionally feed the
    [journal_checkpoint_bytes] series (their rendered size). *)

val records : t -> record list
(** Oldest first. *)

val length : t -> int

val incarnation : t -> int
(** Number of {!Restarted} records appended — the epoch under which the
    site's reliable links currently operate. *)

(** {2 Replay} *)

(** A rule-epoch transition, in the order a site went through it. *)
type epoch_op =
  | Op_propose of int * Cm_rule.Rule.t list
  | Op_cutover of int
  | Op_retire of int

(** The durable state a journal implies. *)
type replay = {
  incarnation : int;
  store : (Cm_rule.Item.t * Cm_rule.Value.t) list;  (** in item order *)
  links : link_state list;
      (** every peer the transport state names, in peer order: the
          unacknowledged outbound messages (ascending mid) and the
          receiver window towards each *)
  sent_to : string list;
      (** the peers of [links] whose sender half the log records — an
          outbound or ack record after the base, or a link of the base
          checkpoint — in peer order *)
  epoch_ops : epoch_op list;  (** rule-epoch transitions, in order *)
  replayed : int;  (** records folded, checkpoint base included *)
}

val replay : t -> replay
(** The one fold over the log: the newest {!Checkpoint} (if any), then
    every record after it, oldest first.  Recovery restores from it, the
    reliable layer re-queues from its [links], and {!checkpoint} freezes
    it. *)

val checkpoint : t -> time:float -> unit
(** Append {!replay} frozen into a {!Checkpoint} record, so replay from
    it and replay from the origin agree by construction. *)

val events : t -> Cm_rule.Event.t list
(** The journaled events, oldest first, as spontaneous events with id 0
    — the history a restarted monitor relearns. *)

val to_string : t -> string
(** One canonical line per record — byte-identical across replays of the
    same seed. *)

type stats = { appends : int; checkpoints : int; incarnation : int }

val stats : t -> stats

(** {2 Registry}

    One journal per site, held on shared (stable) storage by the
    system. *)

type registry

val create_registry : ?obs:Obs.t -> unit -> registry
val for_site : registry -> site:string -> t
val sites : registry -> string list
(** Sites that ever journaled, sorted. *)
