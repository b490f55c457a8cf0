module Sim = Cm_sim.Sim
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Net = Cm_net.Net
module Reliable = Cm_core.Reliable
module Journal = Cm_core.Journal
module Recovery = Cm_core.Recovery
module Msg = Cm_core.Msg
module Guarantee = Cm_core.Guarantee
module Evolution = Cm_core.Evolution
module Strategy = Cm_core.Strategy
module Prng = Cm_util.Prng
module Monitor = Cm_core.Monitor
module Tr_rel = Cm_core.Tr_relational
module Health = Cm_sources.Health
module Route = Cm_route.Route
module Fabric = Cm_shard.Shard.Fabric
module Obs = Cm_core.Obs
module Pw = Cm_workload.Payroll
module Bw = Cm_workload.Bank
module Readers = Cm_workload.Readers

type workload = Payroll | Bank | Ring of { sites : int }

let workload_to_string = function Payroll -> "payroll" | Bank -> "bank" | Ring _ -> "ring"

let workload_of_string s : workload option =
  match String.lowercase_ascii s with
  | "payroll" -> Some Payroll
  | "bank" -> Some Bank
  | _ -> None

type spec = {
  seed : int;
  events : int;
  crashes : int;
  crash_min_len : float;
  crash_max_len : float;
  durability : Journal.durability;
  chaos_workload : workload;
  churn : int;
  heal : bool;
  shards : int;
}

let default_spec =
  {
    seed = 42;
    events = 200;
    crashes = 5;
    crash_min_len = 10.0;
    crash_max_len = 60.0;
    durability = Journal.Journal_with_checkpoint;
    chaos_workload = Payroll;
    churn = 0;
    heal = false;
    shards = 0;
  }

let validate spec =
  if spec.events < 0 || spec.crashes < 0 || spec.churn < 0 then
    Error "events, crashes and churn must not be negative"
  else
    match spec.chaos_workload with
    | Ring { sites } ->
      if spec.shards < 1 then
        Error "the ring runs on the fabric: shards must be at least 1"
      else if sites < 4 then
        Error (Printf.sprintf "the ring needs at least 4 sites (got %d)" sites)
      else if spec.heal || spec.churn > 0 then
        Error "shards cannot be combined with heal or churn"
      else Ok ()
    | (Payroll | Bank) as w when spec.shards <> 0 ->
      Error
        (Printf.sprintf "shards need the ring workload; %s does not run sharded"
           (workload_to_string w))
    | Bank when spec.churn > 0 -> Error "churn is only defined for the payroll workload"
    | Bank when spec.heal -> Error "heal is only defined for the payroll workload"
    | Payroll | Bank -> Ok ()

type fault =
  | Crash of { site : string; at : float; restart_at : float }
  | Loss_window of { at : float; until : float; drop : float; dup : float }
  | Partition of { at : float; until : float }
  | Silent_drop of { at : float; until : float }
  | Bad_cutover of { at : float }
  | Flush of { at : float }

(* One live rule-program replacement (Evolution cutover), in absolute
   simulation time.  Injected into the oracle and the faulty run alike:
   churn is part of the workload being compared, not a fault. *)
type churn_event = { ch_at : float; ch_variant : string }

(* One workload operation; values are drawn up front so the oracle and
   the faulty run inject the exact same stream. *)
type op = { op_at : float; op_slot : int; op_value : int }

type schedule = {
  ops : op list;
  inject_end : float;
  faults : fault list;
  churns : churn_event list;
  horizon : float;
}

type invariant = { inv_name : string; ok : bool; detail : string }

type epochs = {
  cutovers : int;
  epoch_retirements : int;
  stale_epoch_rejections : int;
  both_epoch_guarantees : string list;
  both_epoch_violations : string list;
}

type tally = {
  fires : int;
  logical_notices : int;
  metric_notices : int;
  transport_pending : int;
  transport : Reliable.stats;
  endpoint_down_at_send : int;
  endpoint_down_in_flight : int;
  journal_appends : int;
  journal_checkpoints : int;
  replayed_records : int;
  final_state : (string * float) list;
  follows_valid : bool;
  safety_violations : int;
  epochs : epochs option;
}

type outcome =
  | Compared of {
      oracle : tally;
      chaos : tally;
      lost_firings : int;
      duplicate_firings : int;
    }
  | Healed of {
      kappa : float;
      reads : int;
      replica_reads : int;
      master_reads : int;
      poll_reads : int;
      stale_serves : int;
      quarantines : int;
      probes : int;
      readmissions : int;
      stale_onsets : float list;
      stream_violations : int;
      rollbacks : int;
      rollback_journaled : bool;
      final_epoch : int;
      fold_mismatches : string list;
    }
  | Sharded of {
      digest : string;
      trace_events : int;
      fires : int;
      restarts : int;
      recovered_crashes : int;
      replayed : int;
      live_during_crash : int;
    }

type report = {
  spec : spec;
  schedule : schedule;
  outcome : outcome;
  invariants : invariant list;
}

(* ------------------------------------------------------------------ *)
(* Schedule derivation — a pure function of the spec                   *)
(* ------------------------------------------------------------------ *)

let ring_site i = Printf.sprintf "s%d" i
let ring_base i = Printf.sprintf "X%d" i

(* The two sites a partition window cuts apart (on the ring: the edge
   from the first even site to the first odd one). *)
let site_pair = function
  | Payroll -> (Pw.site_a, Pw.site_b)
  | Bank -> ("branch_a", "branch_b")
  | Ring _ -> (ring_site 0, ring_site 1)

let employees = [| "e1"; "e2"; "e3"; "e4"; "e5" |]

let derive_ops spec rng =
  let t = ref 5.0 in
  let ops =
    List.init spec.events (fun _ ->
        t := !t +. Prng.uniform_in rng ~lo:0.5 ~hi:2.5;
        let op_slot, op_value =
          match spec.chaos_workload with
          | Bank ->
            (* side 0 = X (constrained above), side 1 = Y (below). *)
            let side = Prng.int rng 2 in
            let v =
              if side = 0 then Prng.int rng 100 else 20 + Prng.int rng 180
            in
            (side, v)
          | Payroll | Ring _ ->
            (Prng.int rng (Array.length employees), 1000 + Prng.int rng 9000)
        in
        { op_at = !t; op_slot; op_value })
  in
  (ops, !t)

(* When a fault starts and ends. *)
let window = function
  | Crash { at; restart_at; _ } -> (at, restart_at)
  | Loss_window { at; until; _ } | Partition { at; until } | Silent_drop { at; until } ->
    (at, until)
  | Bad_cutover { at } | Flush { at } -> (at, at)

let derive_faults spec rng ~inject_end =
  let site_a, site_b = site_pair spec.chaos_workload in
  let crashes =
    if spec.crashes = 0 then []
    else begin
      (* One crash per equal slot of the injection span: windows cannot
         overlap, so exactly one site is down at any time. *)
      let slot = inject_end /. float_of_int spec.crashes in
      List.init spec.crashes (fun i ->
          let s = float_of_int i *. slot in
          let dur =
            Float.min
              (Prng.uniform_in rng ~lo:spec.crash_min_len ~hi:spec.crash_max_len)
              (0.8 *. slot)
          in
          let at = s +. Prng.uniform_in rng ~lo:0.0 ~hi:(slot -. dur) in
          let site = Prng.pick rng [| site_a; site_b |] in
          Crash { site; at; restart_at = at +. dur })
    end
  in
  let n_loss = 1 + (spec.events / 500) in
  let loss =
    let slot = inject_end /. float_of_int n_loss in
    List.init n_loss (fun i ->
        let s = float_of_int i *. slot in
        let dur = Prng.uniform_in rng ~lo:10.0 ~hi:(Float.min 50.0 (0.8 *. slot)) in
        let at = s +. Prng.uniform_in rng ~lo:0.0 ~hi:(slot -. dur) in
        let drop = 0.05 +. Prng.float rng 0.1 in
        let dup = Prng.float rng 0.05 in
        Loss_window { at; until = at +. dur; drop; dup })
  in
  let n_part = 1 + (spec.events / 1000) in
  let partitions =
    let slot = inject_end /. float_of_int n_part in
    List.init n_part (fun i ->
        let s = float_of_int i *. slot in
        let dur = Prng.uniform_in rng ~lo:5.0 ~hi:(Float.min 30.0 (0.5 *. slot)) in
        let at = s +. Prng.uniform_in rng ~lo:0.0 ~hi:(slot -. dur) in
        Partition { at; until = at +. dur })
  in
  let start f = fst (window f) in
  List.stable_sort (fun a b -> Float.compare (start a) (start b))
    (crashes @ loss @ partitions)

(* The three strategy variants churned between; the base program is
   "propagate", and each draw picks a variant different from the one
   currently active, so every churn event is a real program change. *)
let churn_variants = [| "propagate"; "propagate-cached"; "poll" |]

let derive_churn spec rng ~inject_end =
  if spec.churn = 0 then []
  else begin
    (* Times first, then variants, so neither draw shifts the other. *)
    let times =
      List.init spec.churn (fun _ ->
          Prng.uniform_in rng ~lo:(0.15 *. inject_end) ~hi:(0.95 *. inject_end))
      |> List.sort Float.compare
    in
    let prev = ref "propagate" in
    List.map
      (fun at ->
        let others =
          Array.to_list churn_variants
          |> List.filter (fun v -> not (String.equal v !prev))
          |> Array.of_list
        in
        let v = others.(Prng.int rng (Array.length others)) in
        prev := v;
        { ch_at = at; ch_variant = v })
      times
  end

(* Windows are long relative to κ (~10 s for the payroll program) so a
   write dropped early in a window is guaranteed to age out of the κ
   horizon before the window lifts — each window should produce a real
   staleness onset, not just a near miss. *)
let derive_drops spec rng ~inject_end =
  let n = 2 + (spec.events / 200) in
  let slot = inject_end /. float_of_int n in
  List.init n (fun i ->
      let s = float_of_int i *. slot in
      let hi = Float.min 45.0 (0.7 *. slot) in
      let dur = Prng.uniform_in rng ~lo:(Float.min 20.0 (0.5 *. hi)) ~hi in
      let at = s +. Prng.uniform_in rng ~lo:0.0 ~hi:(slot -. dur) in
      Silent_drop { at; until = at +. dur })

(* The latest of [from] and every fault's end, plus a quiescence margin. *)
let settle ~from ~margin faults =
  List.fold_left (fun acc f -> Float.max acc (snd (window f))) from faults +. margin

(* Quiescence margin after the last injection: long enough for the full
   retransmission chain (~75 s) plus recovery re-queues to drain. *)
let drain = 300.0

(* Ops and faults of the ring are derived from keyed streams (never the
   run's own wheels), so the schedule is identical at every shard count.
   Distinct fractional offsets keep op times, crash instants and
   deliveries off shared instants — cross-layout digest equality needs
   causally unrelated events to stay on distinct times.  Ops land only
   on even sites and crashes only on odd ones. *)
let ring_schedule spec ~sites:m =
  let ops_rng = Prng.of_key ~seed:spec.seed "shard-chaos-ops" in
  let ops =
    List.init spec.events (fun idx ->
        let slot = 2 * Prng.int ops_rng ((m + 1) / 2) in
        {
          op_at = 2.0 +. (0.83 *. float_of_int idx) +. (0.0019 *. float_of_int slot);
          op_slot = slot;
          op_value = 1000 + (idx * 13) + slot;
        })
  in
  let fault_rng = Prng.of_key ~seed:spec.seed "shard-chaos-faults" in
  let cursor = ref 8.0 in
  let crashes =
    List.init spec.crashes (fun _ ->
        let site = ring_site ((2 * Prng.int fault_rng (m / 2)) + 1) in
        let at = !cursor +. 2.0 +. float_of_int (Prng.int fault_rng 4) +. 0.41 in
        let len = 6.0 +. float_of_int (Prng.int fault_rng 10) +. 0.27 in
        let restart_at = at +. len in
        cursor := restart_at +. 3.0;
        Crash { site; at; restart_at })
  in
  let faults =
    if spec.crashes > 0 then
      (* one partitioned ring edge (even source -> odd target) for
         mirrored-flag coverage *)
      let at = 5.0 +. float_of_int (Prng.int fault_rng 6) +. 0.19 in
      crashes @ [ Partition { at; until = at +. 6.0 } ]
    else crashes
  in
  let inject_end = List.fold_left (fun acc o -> Float.max acc o.op_at) 0.0 ops in
  let horizon = settle ~from:inject_end ~margin:40.0 faults in
  { ops; inject_end; faults; churns = []; horizon }

(* The single-system schedule, plus the heal stream left positioned after
   its up-front draws: heal reader arrivals consume it lazily during the
   run.  Heal draws drops first, then the bad-cutover instant, so neither
   shifts the other.

   The master stream is split once per concern, in a fixed order, so the
   op stream never shifts when the fault generator draws more or less.
   The churn stream splits after faults for the same reason: a spec with
   churn = 0 derives the exact ops and faults it did before churn
   existed.  The heal stream (silent-drop windows, bad cutover, reader
   traffic) splits last, so pre-heal specs keep their exact schedules
   and reports. *)
let derive spec =
  let master = Prng.create ~seed:spec.seed in
  let ops_rng = Prng.split master in
  let fault_rng = Prng.split master in
  let churn_rng = Prng.split master in
  let heal_rng = Prng.split master in
  let ops, inject_end = derive_ops spec ops_rng in
  let faults, churns, horizon =
    if spec.heal then begin
      let drops = derive_drops spec heal_rng ~inject_end in
      let bad_at =
        Prng.uniform_in heal_rng ~lo:(0.3 *. inject_end) ~hi:(0.7 *. inject_end)
      in
      let flush_at = settle ~from:inject_end ~margin:10.0 drops in
      let faults = drops @ [ Bad_cutover { at = bad_at }; Flush { at = flush_at } ] in
      (faults, [], flush_at +. 60.0)
    end
    else begin
      let faults = derive_faults spec fault_rng ~inject_end in
      let churns = derive_churn spec churn_rng ~inject_end in
      (faults, churns, settle ~from:inject_end ~margin:drain faults)
    end
  in
  ({ ops; inject_end; faults; churns; horizon }, heal_rng)

let check spec =
  match validate spec with Ok () -> () | Error e -> invalid_arg ("Chaos: " ^ e)

let schedule spec =
  check spec;
  match spec.chaos_workload with
  | Ring { sites } -> ring_schedule spec ~sites
  | Payroll | Bank -> fst (derive spec)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let chaos_config (spec : spec) =
  Sys_.Config.(
    seeded spec.seed
    |> with_reliable Reliable.default_config
    |> with_durability spec.durability)

(* The one fault applier.  A system schedules crashes, partitions and
   loss windows on its own wheel; the fabric pre-arms crashes and
   partitions on every shard's wheel so fault state agrees across shards
   at matching times.  Heal injections need the heal world's handles and
   go to [heal]. *)
let apply_faults spec world ?(heal = fun _ -> ()) faults =
  let site_a, site_b = site_pair spec.chaos_workload in
  List.iter
    (fun f ->
      match (world, f) with
      | `System system, Crash { site; at; restart_at } ->
        let sim = Sys_.sim system in
        Sim.schedule_at sim at (fun () -> Sys_.crash_site system ~site);
        Sim.schedule_at sim restart_at (fun () -> Sys_.restart_site system ~site)
      | `Fabric fab, Crash { site; at; restart_at } ->
        Fabric.schedule_crash fab ~site ~at;
        Fabric.schedule_restart fab ~site ~at:restart_at
      | `System system, Partition { at; until } ->
        Sim.schedule_at (Sys_.sim system) at (fun () ->
            Net.partition_pair (Sys_.net system) ~site_a ~site_b ~until)
      | `Fabric fab, Partition { at; until } ->
        Fabric.schedule_partition fab ~from_site:site_a ~to_site:site_b ~at ~until
      | `System system, Loss_window { at; until; drop; dup } ->
        let sim = Sys_.sim system and net = Sys_.net system in
        Sim.schedule_at sim at (fun () ->
            Net.set_default_faults net { Net.drop_prob = drop; dup_prob = dup });
        Sim.schedule_at sim until (fun () -> Net.set_default_faults net Net.no_faults)
      | `Fabric _, Loss_window _ ->
        invalid_arg "Chaos: ring schedules have no loss windows"
      | _, (Silent_drop _ | Bad_cutover _ | Flush _) -> heal f)
    faults

let inv inv_name ok detail = { inv_name; ok; detail }

(* Logical and metric failure notices the shells will receive. *)
let count_notices shells =
  let logical = ref 0 and metric = ref 0 in
  List.iter
    (fun shell ->
      Shell.on_failure_notice shell (fun ~origin:_ -> function
        | Msg.Logical -> incr logical | Msg.Metric -> incr metric))
    shells;
  (logical, metric)

(* Every chaos configuration runs the reliable layer. *)
let reliable system = Option.get (Sys_.reliable system)

let drained pending =
  inv "transport-drained" (pending = 0)
    (Printf.sprintf "%d unacknowledged envelopes after quiescence" pending)

(* What one payroll or bank run measured, read off its system after it
   quiesced. *)
let measure spec system ~shells ~notices:(logical, metric) ~final_state
    ?(follows_valid = true) ?(safety_violations = 0) ?epochs () =
  let site_a, site_b = site_pair spec.chaos_workload in
  let journal f =
    match Sys_.journals system with
    | None -> 0
    | Some reg ->
      f (Journal.stats (Journal.for_site reg ~site:site_a))
      + f (Journal.stats (Journal.for_site reg ~site:site_b))
  in
  let net = Sys_.net system in
  {
    fires = List.fold_left (fun acc sh -> acc + Shell.fires_executed sh) 0 shells;
    logical_notices = !logical;
    metric_notices = !metric;
    transport_pending = Reliable.pending (reliable system);
    transport = Reliable.stats (reliable system);
    endpoint_down_at_send = Net.endpoint_down_at_send net;
    endpoint_down_in_flight = Net.endpoint_down_in_flight net;
    journal_appends = journal (fun s -> s.Journal.appends);
    journal_checkpoints = journal (fun s -> s.Journal.checkpoints);
    replayed_records =
      (match Sys_.recovery system with
      | None -> 0
      | Some r -> (Recovery.stats r).Recovery.replayed_records);
    final_state;
    follows_valid;
    safety_violations;
    epochs;
  }

let retire_drained sim evo ~at =
  Sim.schedule_at sim at (fun () ->
      List.iter
        (fun epoch ->
          match Evolution.retire evo ~epoch with
          | Ok () -> ()
          | Error e -> failwith ("Chaos: epoch retire failed: " ^ e))
        (Evolution.draining evo))

(* Build the i-th churned strategy.  Prefixes carry the epoch index so
   every epoch's rule ids are distinct in journals and traces; the cache
   of a cached epoch is likewise per-epoch (its aux_init re-initializes
   it at cutover anyway). *)
let churn_strategy i variant =
  let pfx = Printf.sprintf "churn%d" (i + 1) in
  match variant with
  | "propagate" ->
    Strategy.propagate ~prefix:pfx ~delta:5.0 ~source:Pw.source_pattern
      ~target:Pw.target_pattern ()
  | "propagate-cached" ->
    Strategy.propagate_cached ~prefix:pfx ~delta:5.0 ~source:Pw.source_pattern
      ~target:Pw.target_pattern
      ~cache:(Printf.sprintf "SalCache%d" (i + 1))
      ()
  | "poll" ->
    (* Read requests must name concrete items (cf. Payroll.install_polling). *)
    Strategy.combine
      (List.map
         (fun emp ->
           let concrete base =
             Cm_rule.Expr.Item (base, [ Cm_rule.Expr.Const (Cm_rule.Value.Str emp) ])
           in
           Strategy.poll
             ~prefix:(pfx ^ "_" ^ emp)
             ~period:20.0 ~delta:5.0 ~source:(concrete "Salary1")
             ~target:(concrete "Salary2") ())
         (Array.to_list employees))
  | v -> invalid_arg ("Chaos.churn_strategy: unknown variant " ^ v)

let guarantee_of_name name emp =
  let pair =
    { Guarantee.leader = Pw.source_item emp; follower = Pw.target_item emp }
  in
  match name with
  | "(1) follows" -> Some (Guarantee.Follows pair)
  | "(2) leads" -> Some (Guarantee.Leads pair)
  | "(3) strictly-follows" -> Some (Guarantee.Strictly_follows pair)
  | _ -> None  (* metric guarantees are excused under faults (§5) *)

(* Guarantees claimed Kept by BOTH epochs of EVERY transition — i.e.
   proved under every rule program that was ever active in the run.
   These must hold on the observed timeline despite churn and faults. *)
let both_epoch_kept transitions =
  match List.map Evolution.kept_names transitions with
  | [] -> []
  | first :: rest ->
    List.filter (fun n -> List.for_all (fun s -> List.mem n s) rest) first

(* The payroll bindings never declare a no-spontaneous-write interface on
   the target, but in this harness it is true by construction: the op
   stream only updates site A.  Without the declaration the prover
   (correctly, conservatively) refuses every follows-style guarantee — the
   both-epoch invariant would be vacuous and no κ would be provable. *)
let payroll_interfaces p =
  Sys_.interface_rules p.Pw.system
  @ [ Cm_core.Interface.no_spontaneous_write Pw.target_pattern ]

let schedule_payroll_ops p ops =
  List.iter
    (fun op ->
      Pw.schedule_update p ~at:op.op_at ~emp:employees.(op.op_slot)
        ~salary:op.op_value)
    ops

let cutover sim evo ~at strategy =
  Sim.schedule_at sim at (fun () ->
      match Evolution.evolve ~quiesce:false evo strategy with
      | Ok _ -> ()
      | Error e -> failwith ("Chaos: cutover failed: " ^ e))

let run_payroll spec sched ~faulty =
  let p = Pw.create ~config:(chaos_config spec) ~employees:(Array.length employees) () in
  Pw.install_propagation p;
  let notices = count_notices [ p.Pw.shell_a; p.Pw.shell_b ] in
  let g_follows =
    Sys_.declare_guarantee p.Pw.system ~sites:[ Pw.site_a; Pw.site_b ]
      (Guarantee.Follows
         { Guarantee.leader = Pw.source_item "e1"; follower = Pw.target_item "e1" })
  in
  schedule_payroll_ops p sched.ops;
  if faulty then apply_faults spec (`System p.Pw.system) sched.faults;
  let evo =
    Evolution.create
      ~constraints:[ ("Salary1", "Salary2") ]
      ~interfaces:(payroll_interfaces p) p.Pw.system
  in
  let sim = Sys_.sim p.Pw.system in
  List.iteri
    (fun i ce -> cutover sim evo ~at:ce.ch_at (churn_strategy i ce.ch_variant))
    sched.churns;
  (* Retire every drained epoch at a fixed time well past the last fault
     window plus the full retransmission-and-requeue chain, so the oracle
     and the faulty run retire at the same instant and neither still has
     old-epoch envelopes on the wire (stale rejection under adversarial
     timing is exercised by the unit tests, not here — a rejection on one
     side only would masquerade as message loss). *)
  if sched.churns <> [] then retire_drained sim evo ~at:(sched.horizon -. (drain /. 2.0));
  Sys_.run p.Pw.system ~until:sched.horizon;
  let epochs =
    if sched.churns = [] then None
    else begin
      let transitions = Evolution.transitions evo in
      let both_kept =
        List.filter
          (fun n -> Option.is_some (guarantee_of_name n "e1"))
          (both_epoch_kept transitions)
      in
      let both_violations =
        List.concat_map
          (fun name ->
            List.filter_map
              (fun emp ->
                let rep =
                  Sys_.check_guarantee ~initial:p.Pw.initial
                    ~ignore_after:sched.inject_end p.Pw.system
                    (Option.get (guarantee_of_name name emp))
                in
                if rep.Guarantee.holds then None
                else
                  Some
                    (Printf.sprintf "%s[%s]: %s" name emp
                       (String.concat "; " rep.Guarantee.counterexamples)))
              (Array.to_list employees))
          both_kept
      in
      Some
        {
          cutovers = List.length transitions;
          epoch_retirements = Evolution.retirements evo;
          stale_epoch_rejections = Evolution.stale_rejections evo;
          both_epoch_guarantees = both_kept;
          both_epoch_violations = both_violations;
        }
    end
  in
  measure spec p.Pw.system ~shells:[ p.Pw.shell_a; p.Pw.shell_b ] ~notices
    ~final_state:
      (List.map
         (fun emp -> (emp, Cm_rule.Value.to_float (Pw.salary_at p `B emp)))
         (Array.to_list employees))
    ~follows_valid:(Sys_.guarantee_valid g_follows) ?epochs ()

let run_bank spec sched ~faulty =
  let b =
    Bw.create ~config:(chaos_config spec) ~policy:Cm_core.Demarcation.Conservative ()
  in
  let notices = count_notices [ b.Bw.shell_a; b.Bw.shell_b ] in
  let sim = Sys_.sim b.Bw.system in
  List.iter
    (fun op ->
      Sim.schedule_at sim op.op_at (fun () ->
          if op.op_slot = 0 then ignore (Bw.try_set_x b op.op_value)
          else ignore (Bw.try_set_y b op.op_value)))
    sched.ops;
  (* The X <= Y safety claim is sampled rather than event-checked: the
     demarcation protocol must keep it true at every instant, crashes or
     not, because limits only ever move in the safe direction first. *)
  let violations = ref 0 in
  Sim.every sim ~period:1.0
    (fun () -> if Bw.x_bal b > Bw.y_bal b then incr violations)
    ~cancel:(fun () -> false);
  if faulty then apply_faults spec (`System b.Bw.system) sched.faults;
  Sys_.run b.Bw.system ~until:sched.horizon;
  measure spec b.Bw.system ~shells:[ b.Bw.shell_a; b.Bw.shell_b ] ~notices
    ~final_state:
      [ ("x_bal", Bw.x_bal b); ("y_bal", Bw.y_bal b);
        ("x_lim", Bw.x_lim b); ("y_lim", Bw.y_lim b) ]
    ~safety_violations:!violations ()

(* Under a poll epoch, firings are timer-driven self-sends at the polling
   site, and a crashed endpoint drops self-sends without journaling them
   (there is no reliable protocol on the loopback path).  So a crash of
   the source site overlapping a poll epoch's dispatch window eats that
   window's samples (§4.2.3 — sampling misses what happens while it is
   not looking), and if the epoch churns away before the site restarts,
   no later tick retakes them.  Exactly those schedules are excused from
   firing-count and bytewise final-state equality with the oracle; the
   both-epoch-guarantee and follows checks still hold them to "stale,
   never wrong".  Every other fault keeps the full obligations:
   cross-site fires are journaled and requeued, so crashes elsewhere must
   lose nothing. *)
let poll_crash_overlap sched =
  let rec poll_windows = function
    | [] -> []
    | c :: rest ->
      let stop = match rest with c2 :: _ -> c2.ch_at | [] -> sched.horizon in
      (if String.equal c.ch_variant "poll" then [ (c.ch_at, stop) ] else [])
      @ poll_windows rest
  in
  let windows = poll_windows sched.churns in
  List.exists
    (function
      | Crash { site; at; restart_at } when String.equal site Pw.site_a ->
        List.exists (fun (lo, hi) -> at < hi && restart_at > lo) windows
      | _ -> false)
    sched.faults

let compared_invariants spec sched ~oracle ~chaos ~lost ~dup =
  let durable = spec.durability <> Journal.None in
  let common =
    [
      drained chaos.transport_pending;
      inv "crashes-are-metric-only" (chaos.logical_notices = 0)
        (Printf.sprintf
           "%d logical notices (want 0: a remembered crash is late, not lost)"
           chaos.logical_notices);
      inv "metric-notice-on-crash"
        (spec.crashes = 0 || chaos.metric_notices > 0)
        (Printf.sprintf "%d metric notices for %d crashes" chaos.metric_notices
           spec.crashes);
    ]
  in
  let specific =
    match spec.chaos_workload with
    | Payroll ->
      let excused = poll_crash_overlap sched in
      [
        inv "no-lost-firings"
          (lost = 0 || excused)
          (if excused then
             Printf.sprintf
               "oracle executed %d firings, chaos %d (source crash overlapped \
                a poll epoch: ticks are unjournaled self-sends; deferred to \
                guarantee checks)"
               oracle.fires chaos.fires
           else
             Printf.sprintf "oracle executed %d firings, chaos %d" oracle.fires
               chaos.fires);
        inv "no-duplicate-firings" (dup = 0)
          (Printf.sprintf "chaos executed %d firings beyond the oracle's" dup);
        inv "final-state-matches-oracle"
          (chaos.final_state = oracle.final_state || excused)
          (if excused && chaos.final_state <> oracle.final_state then
             "diverged, excused: a source crash overlapping a poll epoch \
              loses samples no later tick retakes (stale, never wrong — \
              the follows check below still binds)"
           else "target salaries after quiescence vs the fault-free run");
        inv "follows-guarantee-survives"
          ((not durable) || chaos.follows_valid)
          "metric failures must not invalidate the plain Follows guarantee";
      ]
      @ (match chaos.epochs with
        | None -> []
        | Some e ->
          [
            inv "epochs-drained-and-retired"
              (e.epoch_retirements = e.cutovers && e.stale_epoch_rejections = 0)
              (Printf.sprintf
                 "%d cutovers, %d retirements, %d stale-epoch rejections (want 0: \
                  retirement waits out the drain here)"
                 e.cutovers e.epoch_retirements e.stale_epoch_rejections);
            inv "both-epoch-guarantees-hold"
              (e.both_epoch_violations = [])
              (Printf.sprintf
                 "guarantees kept by every epoch {%s}: %d violations%s"
                 (String.concat ", " e.both_epoch_guarantees)
                 (List.length e.both_epoch_violations)
                 (match e.both_epoch_violations with
                 | [] -> ""
                 | v :: _ -> " — " ^ v));
          ])
    | Bank | Ring _ ->
      (* With crashes the sampled X <= Y count is reported, not asserted:
         limit grants travel as absolute values, so a grant decided
         before a crash and delivered (exactly once) after it can be
         stale and cross the limits until the next redistribution — a
         pre-existing property of the demarcation encoding, not of the
         recovery layer.  On crash-free schedules delivery delay is
         bounded by the retransmission chain and the window never
         opens. *)
      if spec.crashes = 0 then
        [
          inv "x-leq-y-always" (chaos.safety_violations = 0)
            (Printf.sprintf "%d sampled instants violated X <= Y"
               chaos.safety_violations);
        ]
      else []
  in
  specific @ common

(* The oracle-vs-faulty comparison: the same ops (and churn) run once on
   a clean network and once under the schedule's faults. *)
let run_compared spec =
  let sched = fst (derive spec) in
  let body = match spec.chaos_workload with Bank -> run_bank | _ -> run_payroll in
  let oracle = body spec sched ~faulty:false in
  let chaos = body spec sched ~faulty:true in
  let lost = max 0 (oracle.fires - chaos.fires) in
  let dup = max 0 (chaos.fires - oracle.fires) in
  ( sched,
    Compared { oracle; chaos; lost_firings = lost; duplicate_firings = dup },
    compared_invariants spec sched ~oracle ~chaos ~lost ~dup )

(* ------------------------------------------------------------------ *)
(* Self-healing (heal): silent drops, a bad rollout, live monitors     *)
(* ------------------------------------------------------------------ *)

let run_heal spec =
  let sched, readers_rng = derive spec in
  let config = Sys_.Config.with_monitor true (chaos_config spec) in
  let p = Pw.create ~config ~employees:(Array.length employees) () in
  Pw.install_propagation p;
  let sim = Sys_.sim p.Pw.system in
  let monitor = Option.get (Sys_.monitor p.Pw.system) in
  let interfaces = payroll_interfaces p in
  let route =
    Route.create ~interfaces p.Pw.system ~constraints:[ ("Salary1", "Salary2") ]
  in
  Monitor.note_initial monitor p.Pw.initial;
  let kappa =
    match Sys_.copy_qualifies p.Pw.system ~source:"Salary1" ~target:"Salary2" with
    | Ok k -> k
    | Error e -> failwith ("Chaos.run_heal: copy does not qualify: " ^ e)
  in
  let evo =
    Evolution.create
      ~constraints:[ ("Salary1", "Salary2") ]
      ~required:[ ("Salary1", "Salary2") ]
      ~interfaces p.Pw.system
  in
  schedule_payroll_ops p sched.ops;
  let health = Tr_rel.health p.Pw.tr_a in
  (* The bad rollout: an empty program has no propagation chain to the
     copy, so Derive classifies every guarantee of the required pair as
     Lost and Evolution must roll the cutover back on the spot. *)
  let bad_strategy =
    {
      Strategy.strategy_name = "drop-propagation";
      description = "bad rollout: empty program, loses every guarantee";
      rules = [];
      aux_init = [];
    }
  in
  apply_faults spec (`System p.Pw.system) sched.faults ~heal:(function
    | Silent_drop { at; until } ->
      (* A §5 Silent_drop window on the source translator: writes keep
         landing in the ground-truth trace, but the notifications that
         would propagate them die without any failure notice. *)
      Sim.schedule_at sim at (fun () -> Health.set health Health.Silent_drop);
      Sim.schedule_at sim until (fun () -> Health.set health Health.Healthy)
    | Bad_cutover { at } -> cutover sim evo ~at bad_strategy
    | Flush { at } ->
      (* One fresh value per employee after the last drop window, so
         every copy converges and every quarantine can probe back to
         service.  Values sit outside the op range (1000–9999): a
         same-value write takes nothing and fires no notification, so a
         PRNG-drawn flush could silently leave a copy stale forever. *)
      Array.iteri
        (fun idx emp ->
          Pw.schedule_update p ~at:(at +. (0.5 *. float_of_int idx)) ~emp
            ~salary:(20000 + idx))
        employees
    | _ -> ());
  let horizon = sched.horizon in
  retire_drained sim evo ~at:(horizon -. 30.0);
  (* Audits.  The router already refuses to serve a copy whose monitor
     reports it stale (quarantine plus a per-read re-check), so the
     stale-serve counter is 0 by construction — it is the tripwire that
     says so from outside the router. *)
  let stale_serves = ref 0 in
  Route.on_decision route (fun d ->
      match d.Route.d_outcome with
      | Route.Replica ->
        if
          Monitor.copy_stale monitor ~source:d.Route.d_base
            ~target:d.Route.d_served_base
        then incr stale_serves
      | Route.Master | Route.Forced_poll -> ());
  let onsets = ref [] in
  Monitor.on_staleness monitor (fun ~source:_ ~target:_ ~at ~stale ->
      if stale then onsets := at :: !onsets);
  let stream_violations = ref 0 in
  Monitor.on_violation monitor (fun _ -> incr stream_violations);
  Readers.open_loop sim ~rng:readers_rng
    ~clients:[ (Pw.site_a, 20); (Pw.site_b, 30) ]
    ~rate_per_client:0.02 ~until:horizon
    (fun ~site -> ignore (Route.read route ~client_site:site "Salary1"));
  (* One deterministic sweep near the horizon: even if the Poisson tail
     is quiet, a read considers (and so probes) every copy after the
     flush has landed. *)
  Sim.schedule_at sim (horizon -. 1.0) (fun () ->
      ignore (Route.plan route ~client_sites:[ Pw.site_b ]));
  Sys_.run p.Pw.system ~until:horizon;
  (* Post-run audits — live verdicts first, then finalize for the
     streaming-vs-fold comparison (finalize is one-shot). *)
  let copies_fresh =
    not (Monitor.copy_stale monitor ~source:"Salary1" ~target:"Salary2")
  in
  let q_final = Route.quarantined route in
  let rollbacks = List.length (Evolution.rollbacks evo) in
  let requalifies =
    Result.is_ok (Sys_.copy_qualifies p.Pw.system ~source:"Salary1" ~target:"Salary2")
  in
  let rollback_journaled =
    List.for_all
      (fun site ->
        match Sys_.journal p.Pw.system ~site with
        | None -> true  (* durability None: nothing to check *)
        | Some j ->
          List.exists
            (function Journal.Epoch_rollback _ -> true | _ -> false)
            (Journal.records j))
      [ Pw.site_a; Pw.site_b ]
  in
  Monitor.finalize monitor ~horizon;
  let fold_mismatches =
    List.filter_map
      (fun (g, v) ->
        let rep = Sys_.check_guarantee ~initial:p.Pw.initial p.Pw.system g in
        if
          Bool.equal v.Monitor.v_holds rep.Guarantee.holds
          && v.Monitor.v_points = rep.Guarantee.checked_points
        then None
        else
          Some
            (Printf.sprintf
               "%s: stream holds=%b points=%d, fold holds=%b points=%d"
               (Guarantee.to_string g) v.Monitor.v_holds v.Monitor.v_points
               rep.Guarantee.holds rep.Guarantee.checked_points))
      (Monitor.family_verdicts monitor ~source:"Salary1" ~target:"Salary2")
  in
  let drops =
    List.filter_map
      (function Silent_drop _ as f -> Some (window f) | _ -> None)
      sched.faults
  in
  (* A window is only obliged to produce a staleness onset when some
     write was dropped early enough to age out of the κ horizon before
     the window lifts; the +2.0 covers the 1.0 s monitor tick plus
     scheduling slack.  The bound check is the remediation-latency
     contract: every onset the monitor reports must be attributable to a
     drop window, detected within κ + one tick of the window's end. *)
  let expected_onset =
    List.exists
      (fun (lo, hi) ->
        List.exists (fun op -> op.op_at > lo && op.op_at +. kappa +. 2.0 < hi) sched.ops)
      drops
  in
  let out_of_bound =
    List.filter
      (fun t ->
        not (List.exists (fun (lo, hi) -> t >= lo && t <= hi +. kappa +. 2.0) drops))
      !onsets
  in
  let quarantines = Route.quarantines route in
  let invariants =
    [
      inv "no-stale-serve" (!stale_serves = 0)
        (Printf.sprintf
           "%d reads served from a copy its monitor reported stale (want 0)"
           !stale_serves);
      inv "silent-drop-detected"
        ((not expected_onset) || (List.length !onsets >= 1 && quarantines >= 1))
        (if expected_onset then
           Printf.sprintf
             "%d staleness onsets, %d quarantines for %d silent-drop windows"
             (List.length !onsets) quarantines (List.length drops)
         else
           "no window held a dropped write past the κ horizon; nothing to detect");
      inv "staleness-detected-within-bound" (out_of_bound = [])
        (match out_of_bound with
        | [] ->
          Printf.sprintf
            "every onset within [window start, window end + κ(%.2f) + tick + 1.0]"
            kappa
        | t :: _ ->
          Printf.sprintf "onset at %.2f is outside every drop window's bound" t);
      inv "required-rollback"
        (rollbacks = 1 && rollback_journaled && requalifies)
        (Printf.sprintf
           "%d rollbacks (want 1: the bad rollout), journaled=%b, copy \
            qualifies again=%b"
           rollbacks rollback_journaled requalifies);
      inv "reads-fail-over-to-master"
        (quarantines = 0 || Route.reads_by route Route.Master >= 1)
        (Printf.sprintf "%d master reads while copies were quarantined"
           (Route.reads_by route Route.Master));
      inv "quarantine-cleared" (q_final = [])
        (Printf.sprintf "%d copies still quarantined at the horizon (want 0)"
           (List.length q_final));
      inv "copies-fresh-at-horizon" copies_fresh
        "the flush must converge every copy before the run ends";
      inv "streaming-equals-fold" (fold_mismatches = [])
        (match fold_mismatches with
        | [] -> "every streamed verdict equals the post-hoc fold"
        | m :: _ -> m);
      drained (Reliable.pending (reliable p.Pw.system));
    ]
  in
  ( sched,
    Healed
      {
        kappa;
        reads = Route.reads route;
        replica_reads = Route.reads_by route Route.Replica;
        master_reads = Route.reads_by route Route.Master;
        poll_reads = Route.reads_by route Route.Forced_poll;
        stale_serves = !stale_serves;
        quarantines;
        probes = Route.probes route;
        readmissions = Route.readmissions route;
        stale_onsets = List.sort Float.compare !onsets;
        stream_violations = !stream_violations;
        rollbacks;
        rollback_journaled;
        final_epoch = Evolution.current_epoch evo;
        fold_mismatches;
      },
    invariants )

(* ------------------------------------------------------------------ *)
(* The ring: crashes under the multi-domain fabric                     *)
(* ------------------------------------------------------------------ *)

let ring_locator item =
  let b = item.Cm_rule.Item.base in
  if String.length b > 1 && b.[0] = 'X' then
    match int_of_string_opt (String.sub b 1 (String.length b - 1)) with
    | Some i -> ring_site i
    | None -> ring_site 0
  else ring_site 0

(* A notification ring: U at site i fires C at site i+1 (a cross-site,
   and — under [i mod shards] assignment — cross-shard message), which
   settles locally as a W.  Workload U events are injected only at even
   sites and crashes hit only odd sites, so an injection never lands on
   a crashed shell and "one shard keeps firing while another is down"
   holds by construction. *)
let ring_rules m =
  let buf = Buffer.create 256 in
  for i = 0 to m - 1 do
    Buffer.add_string buf
      (Printf.sprintf "u%d: U(%s, v) ->[5] C(%s, v)\n" i (ring_base i)
         (ring_base ((i + 1) mod m)));
    Buffer.add_string buf
      (Printf.sprintf "c%d: C(%s, v) ->[5] W(%s, v)\n" i (ring_base i)
         (ring_base i))
  done;
  Cm_rule.Parser.parse_rules (Buffer.contents buf)

let run_ring spec ~sites:m =
  let sched = ring_schedule spec ~sites:m in
  let config =
    Sys_.Config.(
      seeded spec.seed
      |> with_shards spec.shards
      |> with_durability spec.durability
      |> with_obs (Obs.create ()))
  in
  let fab =
    Fabric.create ~config ~keyed_single:true
      ~assign:(fun s ->
        match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
        | Some i -> i mod spec.shards
        | None -> 0)
      ring_locator
  in
  for i = 0 to m - 1 do
    ignore (Fabric.add_shell fab ~site:(ring_site i))
  done;
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j then
        Fabric.set_latency fab ~from_site:(ring_site i) ~to_site:(ring_site j)
          { Net.base = 0.4 +. (0.0071 *. float_of_int ((i * m) + j)); jitter = 0.0 }
    done
  done;
  Fabric.install fab
    {
      Strategy.strategy_name = "shard-chaos-ring";
      description = "cross-shard notification ring";
      rules = ring_rules m;
      aux_init = [];
    };
  apply_faults spec (`Fabric fab) sched.faults;
  List.iter
    (fun op ->
      let s = ring_site op.op_slot in
      let shell = Fabric.shell_for fab ~site:s in
      let emit = Shell.emitter_for shell ~site:s in
      Fabric.at fab ~site:s op.op_at (fun () ->
          ignore
            (emit
               {
                 Cm_rule.Event.name = "U";
                 args =
                   [
                     Cm_rule.Event.Ai (Cm_rule.Item.make (ring_base op.op_slot));
                     Cm_rule.Event.Av (Cm_rule.Value.Int op.op_value);
                   ];
               }
               ~kind:Cm_rule.Event.Spontaneous)))
    sched.ops;
  Fabric.run fab ~until:sched.horizon;
  let merged = Fabric.merged_events fab in
  let inside_crash (e : Cm_rule.Event.t) = function
    | Crash { site; at; restart_at } ->
      e.site <> site && e.time > at && e.time < restart_at
    | _ -> false
  in
  let live_during_crash =
    List.length (List.filter (fun e -> List.exists (inside_crash e) sched.faults) merged)
  in
  let restarts = Fabric.counter_total fab "recovery_restarts" in
  let crash_count = Fabric.counter_total fab "recovery_crashes" in
  let fires = Fabric.counter_total fab "shell_fires_executed" in
  let invariants =
    [
      inv "fires-executed"
        (spec.events = 0 || fires > 0)
        (Printf.sprintf "%d rule firings executed across shards" fires);
      inv "crashes-recovered"
        (spec.durability = Journal.None
        || (restarts = spec.crashes && crash_count = spec.crashes))
        (Printf.sprintf
           "%d crash(es) scheduled, %d recovery crash records, %d restarts"
           spec.crashes crash_count restarts);
      inv "progress-during-crash"
        (spec.crashes = 0 || live_during_crash > 0)
        (Printf.sprintf
           "%d events at live sites inside crash windows (other shards keep \
            firing while one site is down)"
           live_during_crash);
      inv "trace-nonempty"
        (spec.events = 0 || merged <> [])
        (Printf.sprintf "%d merged trace events" (List.length merged));
    ]
  in
  ( sched,
    Sharded
      {
        digest = Fabric.trace_digest fab;
        trace_events = List.length merged;
        fires;
        restarts;
        recovered_crashes = crash_count;
        replayed = Fabric.counter_total fab "recovery_replayed_records";
        live_during_crash;
      },
    invariants )

let static_rules w =
  (* A throwaway fault-free instance: workload constructors install the
     same rules every run, so its specifications are the workload's. *)
  let config = Sys_.Config.seeded 0 in
  let of_system s = (Sys_.interface_rules s, Sys_.strategy_rules s, Sys_.locator s) in
  match w with
  | Ring { sites } -> ([], ring_rules sites, ring_locator)
  | Payroll ->
    let p = Pw.create ~config ~employees:1 () in
    Pw.install_propagation p;
    of_system p.Pw.system
  | Bank ->
    of_system (Bw.create ~config ~policy:Cm_core.Demarcation.Conservative ()).Bw.system

(* Each workload body returns the schedule it ran, what it measured and
   its invariants; the report is assembled once, here. *)
let run spec =
  check spec;
  let schedule, outcome, invariants =
    match spec.chaos_workload with
    | Ring { sites } -> run_ring spec ~sites
    | Payroll | Bank -> if spec.heal then run_heal spec else run_compared spec
  in
  { spec; schedule; outcome; invariants }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let passed report = List.for_all (fun i -> i.ok) report.invariants

let fault_to_string = function
  | Crash { site; at; restart_at } ->
    Printf.sprintf "crash %s @ %.2f -> restart @ %.2f" site at restart_at
  | Loss_window { at; until; drop; dup } ->
    Printf.sprintf "loss drop=%.3f dup=%.3f @ %.2f -> %.2f" drop dup at until
  | Partition { at; until } -> Printf.sprintf "partition @ %.2f -> %.2f" at until
  | Silent_drop { at; until } -> Printf.sprintf "silent-drop @ %.2f -> %.2f" at until
  | Bad_cutover { at } -> Printf.sprintf "bad cutover (drop-propagation) @ %.2f" at
  | Flush { at } -> Printf.sprintf "flush @ %.2f" at

(* The ring's header deliberately omits the shard count: one seed must
   print one report at every layout, and CI diffs the output across N
   literally. *)
let report_to_string r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let s = r.spec in
  let durability = Journal.durability_to_string s.durability in
  (match (s.chaos_workload, r.outcome) with
  | Ring { sites }, _ ->
    line "sharded chaos report";
    line "seed=%d sites=%d events=%d crashes=%d durability=%s" s.seed sites
      s.events s.crashes durability
  | _, Healed _ ->
    line "heal report";
    line "workload=payroll seed=%d events=%d durability=%s monitor_tick=1.0"
      s.seed s.events durability
  | w, _ ->
    line "chaos report";
    line
      "workload=%s seed=%d events=%d crashes=%d crash_len=[%.1f,%.1f] \
       durability=%s churn=%d"
      (workload_to_string w) s.seed s.events s.crashes s.crash_min_len
      s.crash_max_len durability s.churn);
  line "schedule:";
  List.iter (fun f -> line "  %s" (fault_to_string f)) r.schedule.faults;
  if r.schedule.churns <> [] then begin
    line "rule churn:";
    List.iter
      (fun c -> line "  cutover to %s @ %.2f" c.ch_variant c.ch_at)
      r.schedule.churns
  end;
  line "results (quiesced @ %.2f%s):" r.schedule.horizon
    (match r.outcome with Healed h -> Printf.sprintf ", kappa=%.2f" h.kappa | _ -> "");
  (match r.outcome with
  | Compared { oracle; chaos = c; lost_firings; duplicate_firings } ->
    line "  firings oracle=%d chaos=%d lost=%d duplicated=%d" oracle.fires
      c.fires lost_firings duplicate_firings;
    line "  notices logical=%d metric=%d" c.logical_notices c.metric_notices;
    let t = c.transport in
    line "  transport pending=%d retransmits=%d epoch_rejections=%d requeued=%d"
      c.transport_pending t.retransmits t.epoch_rejections t.requeued;
    line "  transport give_ups=%d suspects=%d recoveries=%d" t.give_ups
      t.suspects t.recoveries;
    line "  endpoint_down at_send=%d in_flight=%d" c.endpoint_down_at_send
      c.endpoint_down_in_flight;
    line "  journal appends=%d checkpoints=%d replayed=%d" c.journal_appends
      c.journal_checkpoints c.replayed_records;
    Option.iter
      (fun e ->
        line "  evolution cutovers=%d retirements=%d stale_rejections=%d"
          e.cutovers e.epoch_retirements e.stale_epoch_rejections;
        line "  both-epoch guarantees: %s"
          (match e.both_epoch_guarantees with
          | [] -> "(none claimed by every epoch)"
          | names -> String.concat ", " names))
      c.epochs;
    if s.chaos_workload = Bank then line "  safety violations: %d" c.safety_violations
    else line "  final state matches oracle: %b" (c.final_state = oracle.final_state)
  | Healed h ->
    line "  reads total=%d replica=%d master=%d forced_poll=%d stale_serves=%d"
      h.reads h.replica_reads h.master_reads h.poll_reads h.stale_serves;
    line "  quarantine entries=%d probes=%d readmissions=%d" h.quarantines
      h.probes h.readmissions;
    line "  staleness onsets: %s"
      (match h.stale_onsets with
      | [] -> "(none)"
      | ts -> String.concat ", " (List.map (Printf.sprintf "%.2f") ts));
    line "  stream violations=%d" h.stream_violations;
    line "  rollbacks=%d journaled=%b final_epoch=%d" h.rollbacks
      h.rollback_journaled h.final_epoch;
    line "  fold mismatches: %s"
      (match h.fold_mismatches with [] -> "(none)" | ms -> String.concat "; " ms)
  | Sharded g ->
    line "  canonical digest %s" g.digest;
    line "  trace events=%d firings=%d" g.trace_events g.fires;
    line "  recovery crashes=%d restarts=%d replayed=%d" g.recovered_crashes
      g.restarts g.replayed;
    line "  live events during crash windows=%d" g.live_during_crash);
  line "invariants:";
  List.iter
    (fun i ->
      line "  %s %s — %s" (if i.ok then "ok  " else "FAIL") i.inv_name i.detail)
    r.invariants;
  line "verdict: %s" (if passed r then "PASS" else "FAIL");
  Buffer.contents b
