(* Crash-recovery tests: the Journal/Recovery protocol (ISSUE 3) driven
   through crashes placed exactly where the protocol is weakest — across
   the retransmission give-up horizon, across an epoch bump, between a
   checkpoint and the work it summarizes — plus the randomized 50-crash
   chaos schedule from the acceptance criteria. *)

module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Msg = Cm_core.Msg
module Reliable = Cm_core.Reliable
module Journal = Cm_core.Journal
module Recovery = Cm_core.Recovery
module Shell = Cm_core.Shell
module Sys_ = Cm_core.System
module Obs = Cm_core.Obs
module Payroll = Cm_workload.Payroll
module Chaos = Cm_chaos.Chaos
open Cm_rule

let tag i = Msg.Reset_notice { origin_site = string_of_int i }

let untag = function
  | Msg.Reset_notice { origin_site } -> int_of_string origin_site
  | _ -> Alcotest.fail "unexpected message shape"

(* A crash window that outlasts the whole retransmission chain
   (~85 s with the default config), so the sender's give-up concludes
   while the peer is still down. *)
let payroll_long_crash ~durability () =
  let config =
    Sys_.Config.(
      seeded 17
      |> with_reliable Reliable.default_config
      |> with_durability durability)
  in
  let p = Payroll.create ~config ~employees:1 () in
  Payroll.install_propagation p;
  let logical = ref 0 and metric = ref 0 in
  List.iter
    (fun shell ->
      Shell.on_failure_notice shell (fun ~origin:_ -> function
        | Msg.Logical -> incr logical
        | Msg.Metric -> incr metric))
    [ p.Payroll.shell_a; p.Payroll.shell_b ];
  let sim = Sys_.sim p.Payroll.system in
  Sim.schedule_at sim 1.0 (fun () ->
      Sys_.crash_site p.Payroll.system ~site:Payroll.site_b);
  Payroll.schedule_update p ~at:2.0 ~emp:"e1" ~salary:4200;
  Sim.schedule_at sim 150.0 (fun () ->
      Sys_.restart_site p.Payroll.system ~site:Payroll.site_b);
  Sys_.run p.Payroll.system ~until:400.0;
  (p, !logical, !metric)

let crash_outlasting_chain_without_journal_loses () =
  let p, logical, _metric = payroll_long_crash ~durability:Journal.None () in
  let s =
    match Sys_.reliable p.Payroll.system with
    | Some r -> Reliable.stats r
    | None -> Alcotest.fail "reliable layer expected"
  in
  Alcotest.(check bool) "chain exhausted" true (s.Reliable.give_ups >= 1);
  Alcotest.(check int) "abandoned, not pending" 0
    (match Sys_.reliable p.Payroll.system with
     | Some r -> Reliable.pending r
     | None -> 0);
  Alcotest.(check bool) "suspicion surfaced as a logical failure" true
    (logical >= 1);
  Alcotest.(check bool) "the update never reached the target" true
    (Value.to_float (Payroll.salary_at p `B "e1") <> 4200.0)

let crash_outlasting_chain_with_journal_recovers () =
  let p, logical, metric =
    payroll_long_crash ~durability:Journal.Journal_with_checkpoint ()
  in
  let s =
    match Sys_.reliable p.Payroll.system with
    | Some r -> Reliable.stats r
    | None -> Alcotest.fail "reliable layer expected"
  in
  Alcotest.(check bool) "chain crossed the give-up threshold" true
    (s.Reliable.give_ups >= 1);
  Alcotest.(check (float 0.0)) "the durable frame arrived after restart" 4200.0
    (Value.to_float (Payroll.salary_at p `B "e1"));
  Alcotest.(check int) "exactly once" 1
    (Shell.fires_executed p.Payroll.shell_b);
  Alcotest.(check int) "crash stayed metric" 0 logical;
  Alcotest.(check bool) "restart broadcast a metric notice" true (metric >= 1)

(* -- epoch discipline at the transport level -- *)

let transport ?(seed = 3) ?(fifo = true) ?(jitter = 0.0) () =
  let sim = Sim.create ~seed () in
  let net =
    Net.create ~sim ~latency:{ Net.base = 0.05; jitter } ~fifo
      ~faults:Net.no_faults ()
  in
  let journals = Journal.create_registry () in
  let r = Reliable.create ~sim ~net ~journals () in
  (sim, net, r)

let restart_sender r ~next_mid =
  Reliable.reset_endpoint r ~site:"a";
  Reliable.restore_sender_state r ~from_site:"a" ~to_site:"b" ~epoch:1
    ~next_mid;
  Reliable.requeue_unacked r ~from_site:"a" ~to_site:"b"

let epoch_bump_rejects_previous_life () =
  (* 20 frames scattered over [0.05, 5.05] by jitter; the sender
     "restarts" at 0.01 and re-queues all of them under epoch 1.  Old
     and new incarnations' frames interleave on the wire: previous-life
     arrivals after the receiver adopts epoch 1 must be rejected, and
     every payload must still come through exactly once. *)
  let sim, _net, r = transport ~fifo:false ~jitter:5.0 () in
  let got = ref [] in
  Reliable.register r ~site:"b" (fun m -> got := untag m :: !got);
  Reliable.register r ~site:"a" (fun _ -> ());
  for i = 1 to 20 do
    Reliable.send r ~from_site:"a" ~to_site:"b" (tag i)
  done;
  Sim.schedule_at sim 0.01 (fun () -> restart_sender r ~next_mid:20);
  Sim.run sim ~until:300.0;
  let s = Reliable.stats r in
  Alcotest.(check bool) "previous-life frames were rejected" true
    (s.Reliable.epoch_rejections > 0);
  Alcotest.(check (list int)) "every payload exactly once"
    (List.init 20 (fun i -> i + 1))
    (List.sort compare !got);
  Alcotest.(check int) "transport drained" 0 (Reliable.pending r)

let duplicate_suppressed_across_epoch_bump () =
  (* The ack path b->a is partitioned, so the frame is delivered but
     never discharged; the sender restarts and re-queues it under epoch
     1 with the same mid.  The receiver must recognize the mid across
     the epoch bump and deliver nothing twice. *)
  let sim, net, r = transport () in
  let got = ref [] in
  Reliable.register r ~site:"b" (fun m -> got := untag m :: !got);
  Reliable.register r ~site:"a" (fun _ -> ());
  Net.partition net ~from_site:"b" ~to_site:"a" ~until:50.0;
  Reliable.send r ~from_site:"a" ~to_site:"b" (tag 1);
  Sim.schedule_at sim 10.0 (fun () -> restart_sender r ~next_mid:1);
  Sim.run sim ~until:300.0;
  let s = Reliable.stats r in
  Alcotest.(check (list int)) "delivered once" [ 1 ] !got;
  Alcotest.(check int) "stats agree" 1 s.Reliable.delivered;
  Alcotest.(check bool) "the cross-epoch copy was suppressed" true
    (s.Reliable.dup_suppressed >= 1);
  Alcotest.(check int) "transport drained" 0 (Reliable.pending r)

(* -- checkpoints -- *)

let checkpoint_between_firing_halves () =
  (* An update's firing has two durable halves: Fire_sent at the source,
     Delivered at the target.  A checkpoint taken between the delivery
     and the crash must summarize the receiver window consistently, so
     the post-restart replay neither re-fires nor loses the update. *)
  let config =
    Sys_.Config.(
      seeded 23
      |> with_reliable Reliable.default_config
      |> with_durability Journal.Journal_with_checkpoint)
  in
  let p = Payroll.create ~config ~employees:1 () in
  Payroll.install_propagation p;
  let logical = ref 0 in
  Shell.on_failure_notice p.Payroll.shell_b (fun ~origin:_ -> function
    | Msg.Logical -> incr logical
    | Msg.Metric -> ());
  let sim = Sys_.sim p.Payroll.system in
  let rec_mgr =
    match Sys_.recovery p.Payroll.system with
    | Some r -> r
    | None -> Alcotest.fail "recovery manager expected"
  in
  Payroll.schedule_update p ~at:1.0 ~emp:"e1" ~salary:7777;
  (* Notify latency is 1 s and wire latency ~50 ms: the Fire is
     delivered at ~2.05.  Checkpoint at 2.1, crash at 2.15. *)
  Sim.schedule_at sim 2.1 (fun () ->
      Recovery.checkpoint_now rec_mgr ~site:Payroll.site_a;
      Recovery.checkpoint_now rec_mgr ~site:Payroll.site_b);
  Sim.schedule_at sim 2.15 (fun () ->
      Sys_.crash_site p.Payroll.system ~site:Payroll.site_b);
  Sim.schedule_at sim 30.0 (fun () ->
      Sys_.restart_site p.Payroll.system ~site:Payroll.site_b);
  Sys_.run p.Payroll.system ~until:100.0;
  Alcotest.(check (float 0.0)) "the update survived" 7777.0
    (Value.to_float (Payroll.salary_at p `B "e1"));
  Alcotest.(check int) "fired exactly once" 1
    (Shell.fires_executed p.Payroll.shell_b);
  Alcotest.(check int) "no logical failure" 0 !logical

(* -- determinism -- *)

let crash_replay_run () =
  let obs = Obs.create () in
  let config =
    Sys_.Config.(
      seeded 29
      |> with_reliable Reliable.default_config
      |> with_durability Journal.Journal_with_checkpoint
      |> with_obs obs)
  in
  let p = Payroll.create ~config ~employees:3 () in
  Payroll.install_propagation p;
  let sim = Sys_.sim p.Payroll.system in
  List.iteri
    (fun i emp ->
      Payroll.schedule_update p ~at:(2.0 +. float_of_int i) ~emp
        ~salary:(5000 + (100 * i)))
    [ "e1"; "e2"; "e3"; "e1" ];
  Sim.schedule_at sim 3.5 (fun () ->
      Sys_.crash_site p.Payroll.system ~site:Payroll.site_b);
  Sim.schedule_at sim 120.0 (fun () ->
      Sys_.restart_site p.Payroll.system ~site:Payroll.site_b);
  Sys_.run p.Payroll.system ~until:300.0;
  let journal site =
    match Sys_.journal p.Payroll.system ~site with
    | Some j -> Journal.to_string j
    | None -> Alcotest.fail "journal expected"
  in
  ( journal Payroll.site_a ^ journal Payroll.site_b,
    Obs.snapshot_to_json obs )

let journal_replay_is_deterministic () =
  let j1, o1 = crash_replay_run () in
  let j2, o2 = crash_replay_run () in
  Alcotest.(check string) "journals byte-identical" j1 j2;
  Alcotest.(check string) "observability snapshots byte-identical" o1 o2

let chaos_report_is_deterministic () =
  let spec = { Chaos.default_spec with seed = 42; events = 120; crashes = 4 } in
  let r1 = Chaos.report_to_string (Chaos.run spec) in
  let r2 = Chaos.report_to_string (Chaos.run spec) in
  Alcotest.(check string) "chaos reports byte-identical" r1 r2

(* -- one spec surface: what validate refuses, what it lets run -- *)

let ring ?(sites = 6) shards =
  { Chaos.default_spec with chaos_workload = Chaos.Ring { sites }; shards }

(* The specs cmtool builds for every chaos argument set CI runs. *)
let ci_specs =
  let d = Chaos.default_spec in
  [
    ("--seed 42 --events 2000", { d with seed = 42; events = 2000 });
    ( "--seed 7 --events 150 --crashes 3 --churn 3",
      { d with seed = 7; events = 150; crashes = 3; churn = 3 } );
    ("--heal --seed 42", { d with heal = true });
    ( "--workload bank --crashes 0 --seed 42 --events 300",
      { d with chaos_workload = Chaos.Bank; crashes = 0; events = 300 } );
  ]
  @ List.map
      (fun n ->
        ( Printf.sprintf "--shards %d --seed 42 --events 60 --crashes 2" n,
          { (ring n) with events = 60; crashes = 2 } ))
      [ 1; 2; 4 ]

let validate_refuses_what_cannot_run () =
  let d = Chaos.default_spec in
  let bank = { d with chaos_workload = Chaos.Bank } in
  List.iter
    (fun (label, spec) ->
      match Chaos.validate spec with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "validate accepted %s" label)
    [
      ("bank with churn", { bank with churn = 2 });
      ("bank with heal", { bank with heal = true });
      ("bank with shards", { bank with shards = 2 });
      ("payroll with shards", { d with shards = 2 });
      ("ring with heal", { (ring 2) with heal = true });
      ("ring with churn", { (ring 2) with churn = 2 });
      ("ring with 3 sites", ring ~sites:3 2);
      ("ring with 0 shards", ring 0);
      ("ring with -1 shards", ring (-1));
      ("negative events", { d with events = -1 });
      ("negative crashes", { d with crashes = -1 });
    ];
  List.iter
    (fun (args, spec) ->
      match Chaos.validate spec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "validate refused CI set %s: %s" args e)
    ci_specs;
  match Chaos.run (ring ~sites:3 2) with
  | _ -> Alcotest.fail "run accepted a refused spec"
  | exception Invalid_argument _ -> ()

(* -- reports pinned across commits --

   MD5 of report_to_string per spec.  Run-to-run determinism is checked
   elsewhere; these hold one seed to one report across changes of the
   harness itself.  A deliberate report change updates the pin and says
   which lines moved. *)

let pinned_reports =
  let d = Chaos.default_spec in
  let compared w = { d with chaos_workload = w; events = 150; crashes = 3 } in
  let by_seed label mk md5s =
    List.mapi
      (fun i md5 -> (Printf.sprintf "%s seed %d" label (i + 1), mk (i + 1), md5))
      md5s
  in
  let ring_md5s =
    [ "5c7375c863d8cc75894be93ae1fb3d2b"; "e14a4e7b2ab9a0fcfb68edd7aef7c6f4";
      "0f18d7f68a9cb57fc9c2f3741fffcad2" ]
  in
  List.concat
    [
      by_seed "payroll"
        (fun seed -> { (compared Chaos.Payroll) with seed })
        [ "a6a41ee5a76a61e9967de8de5efbb246"; "b634bdb53c7c96d6a5d62d3bc9494a6b";
          "e7fbd316561264dda3334dd6670ede09" ];
      by_seed "bank"
        (fun seed -> { (compared Chaos.Bank) with seed })
        [ "f1ad985afc98d2106cfb60c5f1cb3eb0"; "61465247d83cdcb2a1b131791b484fe0";
          "4aac0304ec47f7115d8e60d978985628" ];
      by_seed "payroll churn"
        (fun seed -> { (compared Chaos.Payroll) with seed; churn = 3 })
        [ "a4707b41b3b9c391c59a8f948af65a6c"; "1721328748bf9189ec1e8f2a1fa9d829";
          "7ea9bc81bd0fcefb41685a52327369a8" ];
      by_seed "heal"
        (fun seed -> { d with seed; heal = true })
        [ "06cc110b6ad099c45bd403830a2fc800"; "e9e1b4d1d0e538faa4414915482cfad7";
          "468d020f899cbbd673cdf6f408545998" ];
      by_seed "ring shards 1"
        (fun seed -> { (ring 1) with seed; events = 40; crashes = 2 })
        ring_md5s;
      by_seed "ring shards 2"
        (fun seed -> { (ring 2) with seed; events = 40; crashes = 2 })
        ring_md5s;
    ]

let pinned_report_case (label, spec, md5) =
  Alcotest.test_case label `Quick (fun () ->
      let r = Chaos.run spec in
      let text = Chaos.report_to_string r in
      Alcotest.(check string)
        (Printf.sprintf "%s report digest\n%s" label text)
        md5 (Digest.to_hex (Digest.string text));
      Alcotest.(check bool) "the schedule run is the derived schedule" true
        (r.Chaos.schedule = Chaos.schedule spec))

(* -- bank: crash-free schedules keep X <= Y at every sampled instant -- *)

let crash_free_bank_schedules_pass () =
  for seed = 1 to 5 do
    let spec =
      {
        Chaos.default_spec with
        seed;
        events = 300;
        crashes = 0;
        chaos_workload = Chaos.Bank;
      }
    in
    let r = Chaos.run spec in
    if not (Chaos.passed r) then
      Alcotest.failf "bank verdict FAIL (seed %d):\n%s" seed (Chaos.report_to_string r);
    Alcotest.(check (list bool))
      (Printf.sprintf "seed %d: x-leq-y-always checked and holds" seed)
      [ true ]
      (List.filter_map
         (fun i -> if i.Chaos.inv_name = "x-leq-y-always" then Some i.Chaos.ok else None)
         r.Chaos.invariants)
  done

(* -- acceptance: the 50-crash schedule -- *)

let fifty_crash_chaos_schedule_is_lossless () =
  let spec =
    {
      Chaos.default_spec with
      seed = 1;
      events = 800;
      crashes = 50;
      durability = Journal.Journal_with_checkpoint;
    }
  in
  let r = Chaos.run spec in
  if not (Chaos.passed r) then
    Alcotest.failf "chaos verdict FAIL:\n%s" (Chaos.report_to_string r);
  match r.Chaos.outcome with
  | Chaos.Compared { oracle; chaos; lost_firings; duplicate_firings } ->
    Alcotest.(check int) "no lost firings" 0 lost_firings;
    Alcotest.(check int) "no duplicated firings" 0 duplicate_firings;
    Alcotest.(check int) "crashes were metric failures only" 0
      chaos.Chaos.logical_notices;
    Alcotest.(check bool) "crashes were visible" true (chaos.Chaos.metric_notices > 0);
    Alcotest.(check bool) "final state converged" true
      (chaos.Chaos.final_state = oracle.Chaos.final_state)
  | _ -> Alcotest.fail "expected an oracle comparison"

(* -- acceptance: self-healing across 50 seeded schedules -- *)

let fifty_seed_heal_schedules_self_heal () =
  for seed = 1 to 50 do
    let spec = { Chaos.default_spec with seed; heal = true } in
    let r = Chaos.run spec in
    if not (Chaos.passed r) then
      Alcotest.failf "heal verdict FAIL (seed %d):\n%s" seed
        (Chaos.report_to_string r);
    (match r.Chaos.outcome with
    | Chaos.Healed { stale_serves; rollbacks; rollback_journaled; fold_mismatches; _ } ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no stale serves" seed)
        0 stale_serves;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: bad rollout rolled back" seed)
        1 rollbacks;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: rollback journaled" seed)
        true rollback_journaled;
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: streamed verdicts match the fold" seed)
        [] fold_mismatches
    | _ -> Alcotest.fail "expected a heal outcome");
    (* Spot-check byte determinism (every seed would double the sweep). *)
    if seed mod 10 = 0 then
      Alcotest.(check string)
        (Printf.sprintf "seed %d: deterministic report" seed)
        (Chaos.report_to_string r)
        (Chaos.report_to_string (Chaos.run spec))
  done

(* -- acceptance: sharded chaos across 25 seeded schedules --

   The multi-domain fabric under crash schedules: every seed must pass
   its invariants (journaled recovery on the crashed site's shard, live
   sites elsewhere keep firing through the window) with a durable
   config, and the report must be byte-identical across repeated runs
   AND across shard counts — the report deliberately omits the shard
   count so one seed prints one report at every layout. *)

let twenty_five_seed_sharded_chaos () =
  for seed = 1 to 25 do
    let spec =
      {
        (ring 2) with
        seed;
        events = 40;
        crashes = 2;
        durability = Journal.Journal_with_checkpoint;
      }
    in
    let r2 = Chaos.run spec in
    if not (Chaos.passed r2) then
      Alcotest.failf "sharded chaos verdict FAIL (seed %d):\n%s" seed
        (Chaos.report_to_string r2);
    (match r2.Chaos.outcome with
    | Chaos.Sharded { restarts; replayed; live_during_crash; _ } ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: both crashes recovered" seed)
        2 restarts;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: journal replay on restart" seed)
        true (replayed > 0);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: live shard fired during crash windows" seed)
        true (live_during_crash > 0)
    | _ -> Alcotest.fail "expected a sharded outcome");
    (* Byte determinism across layouts on every seed; repeated-run
       determinism spot-checked (each extra run re-executes the world). *)
    Alcotest.(check string)
      (Printf.sprintf "seed %d: report identical at 1 and 2 shards" seed)
      (Chaos.report_to_string (Chaos.run { spec with shards = 1 }))
      (Chaos.report_to_string r2);
    if seed mod 5 = 0 then begin
      Alcotest.(check string)
        (Printf.sprintf "seed %d: report identical at 3 shards" seed)
        (Chaos.report_to_string r2)
        (Chaos.report_to_string (Chaos.run { spec with shards = 3 }));
      Alcotest.(check string)
        (Printf.sprintf "seed %d: repeated run byte-identical" seed)
        (Chaos.report_to_string r2)
        (Chaos.report_to_string (Chaos.run spec))
    end
  done

let () =
  Alcotest.run "cm_recovery"
    [
      ( "give-up horizon",
        [
          Alcotest.test_case "without journal the update is lost" `Quick
            crash_outlasting_chain_without_journal_loses;
          Alcotest.test_case "with journal the update survives" `Quick
            crash_outlasting_chain_with_journal_recovers;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "previous-life frames rejected" `Quick
            epoch_bump_rejects_previous_life;
          Alcotest.test_case "duplicate suppressed across bump" `Quick
            duplicate_suppressed_across_epoch_bump;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "between firing halves" `Quick
            checkpoint_between_firing_halves;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "journal replay" `Quick
            journal_replay_is_deterministic;
          Alcotest.test_case "chaos report" `Quick chaos_report_is_deterministic;
        ] );
      ( "spec",
        [
          Alcotest.test_case "validate refuses what cannot run" `Quick
            validate_refuses_what_cannot_run;
        ] );
      ("pinned report", List.map pinned_report_case pinned_reports);
      ( "bank",
        [
          Alcotest.test_case "crash-free schedules keep X <= Y" `Quick
            crash_free_bank_schedules_pass;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "50-crash payroll schedule" `Slow
            fifty_crash_chaos_schedule_is_lossless;
          Alcotest.test_case "50-seed heal schedules self-heal" `Slow
            fifty_seed_heal_schedules_self_heal;
          Alcotest.test_case "25-seed sharded chaos schedules" `Slow
            twenty_five_seed_sharded_chaos;
        ] );
    ]
