(* Crash-recovery manager: the protocol that makes Journal's memory
   actionable (paper §5, ISSUE 3).

   crash:    take the site's network endpoint down.  Volatile state is
             not touched yet — a real crash does not get to run code.
   restart:  bring the endpoint back, wipe the volatile state the crash
             actually destroyed (shell store, reliable link state),
             derive the durable state from the journal (checkpoint +
             replay of everything after it), restore it, re-queue
             journal-unacked outbound messages under a fresh epoch, and
             report the crash as a *metric* failure — with the journal
             the site's updates arrive late, never never.

   The derived state is Journal.replay, the one fold over the log; a
   checkpoint is that fold frozen into a record (Journal.checkpoint). *)

module Sim = Cm_sim.Sim
module Net = Cm_net.Net

type stats = {
  crashes : int;
  restarts : int;
  replayed_records : int;
  checkpoints : int;
}

type t = {
  sim : Sim.t;
  net : Msg.t Net.t;
  reliable : Reliable.t option;
  journals : Journal.registry;
  obs : Obs.t;
  mode : Journal.durability;
  shells : (string, Shell.t) Hashtbl.t;
  mutable crashes : int;
  mutable restarts : int;
  mutable replayed : int;
  mutable checkpoints_taken : int;
}

let checkpoint_period = 60.0

let create ~sim ~net ?reliable ~journals ?(obs = Obs.noop) mode =
  {
    sim;
    net;
    reliable;
    journals;
    obs;
    mode;
    shells = Hashtbl.create 8;
    crashes = 0;
    restarts = 0;
    replayed = 0;
    checkpoints_taken = 0;
  }

let checkpoint_now t ~site =
  Journal.checkpoint (Journal.for_site t.journals ~site) ~time:(Sim.now t.sim);
  t.checkpoints_taken <- t.checkpoints_taken + 1;
  Obs.incr t.obs "recovery_checkpoints" ~labels:[ ("site", site) ]

let register_shell t shell =
  let site = Shell.site shell in
  Hashtbl.replace t.shells site shell;
  match t.mode with
  | Journal.Journal_with_checkpoint ->
    Sim.every t.sim ~period:checkpoint_period
      (fun () ->
        (* A crashed site cannot write its own checkpoint. *)
        if not (Net.site_is_down t.net ~site) then checkpoint_now t ~site)
      ~cancel:(fun () -> false)
  | _ -> ()

(* -- crash / restart -- *)

let crash t ~site =
  Net.crash_site t.net ~site;
  t.crashes <- t.crashes + 1;
  Obs.incr t.obs "recovery_crashes" ~labels:[ ("site", site) ]

let restart t ~site =
  let j = Journal.for_site t.journals ~site in
  let incarnation = Journal.incarnation j + 1 in
  Net.restart_site t.net ~site;
  Journal.append j (Journal.Restarted { time = Sim.now t.sim; incarnation });
  (* The crash destroyed volatile state; model that before restoring. *)
  (match Hashtbl.find_opt t.shells site with
   | Some shell -> Shell.reset_volatile shell
   | None -> ());
  (match t.reliable with
   | Some r -> Reliable.reset_endpoint r ~site
   | None -> ());
  let d = Journal.replay j in
  t.replayed <- t.replayed + d.replayed;
  Obs.incr t.obs "recovery_replayed_records" ~by:d.replayed
    ~labels:[ ("site", site) ];
  (match Hashtbl.find_opt t.shells site with
   | Some shell ->
     List.iter (fun (item, v) -> Shell.restore_aux shell item v) d.store;
     (* Replay the rule-epoch transitions so the site re-enters the
        epoch it had actually reached instead of resurrecting the
        retired base program (crash during cutover). *)
     Shell.restore_epoch_ops shell d.epoch_ops
   | None -> ());
  (match t.reliable with
   | Some r ->
     List.iter
       (fun (l : Journal.link_state) ->
         Reliable.restore_receiver_state r ~from_site:l.peer ~to_site:site
           ~epoch:l.in_epoch ~expected:l.in_expected
           ~delivered_mids:l.delivered_mids)
       d.links;
     List.iter
       (fun (l : Journal.link_state) ->
         if List.mem l.peer d.sent_to then begin
           (* New incarnation: sequence space restarts under the bumped
              epoch, so retransmits from the previous life get rejected
              instead of mis-deduplicated. *)
           Reliable.restore_sender_state r ~from_site:site ~to_site:l.peer
             ~epoch:incarnation ~next_mid:l.next_mid;
           Reliable.requeue_unacked r ~from_site:site ~to_site:l.peer
         end)
       d.links
   | None -> ());
  t.restarts <- t.restarts + 1;
  Obs.incr t.obs "recovery_restarts" ~labels:[ ("site", site) ];
  (* §5: with the journal the crash maps to a metric failure — the
     notice doubles as the sign of life that lets peers which gave up
     on this site re-queue what they owe it. *)
  match Hashtbl.find_opt t.shells site with
  | Some shell -> Shell.report_failure shell Msg.Metric
  | None -> ()

let stats t =
  {
    crashes = t.crashes;
    restarts = t.restarts;
    replayed_records = t.replayed;
    checkpoints = t.checkpoints_taken;
  }
