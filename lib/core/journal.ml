(* Per-site write-ahead log backing crash recovery (ISSUE 3, paper §5).

   The paper's crash-to-metric-failure claim rests on the database being
   able to "remember" messages that need to be sent out upon recovery.
   This module is that memory, made concrete in the ARIES tradition:
   an append-only record stream per site (events received, firing
   decisions, store writes, reliable-transport send/ack/deliver state,
   incarnation changes) plus optional periodic checkpoints that bound
   how much of the stream recovery has to replay.

   The journal survives Net.crash_site by construction: it is owned by
   the recovery manager, not by the site's volatile state, modelling a
   log on stable storage.  Everything is deterministic — appends happen
   in simulation order and serialization is canonical — so two replays
   of the same run produce byte-identical logs. *)

module Item = Cm_rule.Item
module Value = Cm_rule.Value
module Rule = Cm_rule.Rule

type durability = None | Journal | Journal_with_checkpoint

let durability_to_string = function
  | None -> "none"
  | Journal -> "journal"
  | Journal_with_checkpoint -> "journal+checkpoint"

let durability_of_string s : durability option =
  match s with
  | "none" -> Some None
  | "journal" -> Some Journal
  | "journal+checkpoint" | "checkpoint" -> Some Journal_with_checkpoint
  | _ -> None

(* Receiver- and sender-side transport state for one peer, as frozen by
   a checkpoint.  [unacked] and [delivered_mids] are in ascending order
   so checkpoints serialize canonically. *)
type link_state = {
  peer : string;
  next_mid : int;
  unacked : (int * int * int * Msg.t) list;  (* mid, epoch, seq, payload *)
  in_epoch : int;  (* epoch of the last inbound slot consumed from [peer] *)
  in_expected : int;  (* next seq expected from [peer] within [in_epoch] *)
  delivered_mids : int list;
}

(* Lifecycle of a rule epoch as recorded on stable storage; mirrors
   Shell's per-site state machine so recovery can replay a crashed site
   back into the epoch it was actually running. *)
type epoch_phase = Ep_proposed | Ep_active | Ep_draining | Ep_retired

let epoch_phase_to_string = function
  | Ep_proposed -> "proposed"
  | Ep_active -> "active"
  | Ep_draining -> "draining"
  | Ep_retired -> "retired"

type record =
  | Event of { time : float; site : string; desc : Cm_rule.Event.desc }
  | Fire_sent of {
      time : float;
      rule_id : string;
      to_site : string;
      trigger_id : int;
    }
  | Store_write of { time : float; item : Item.t; value : Value.t }
  | Outbound of {
      time : float;
      to_site : string;
      mid : int;
      epoch : int;
      seq : int;
      payload : Msg.t;
    }
  | Acked of { time : float; to_site : string; mid : int }
  | Delivered of {
      time : float;
      from_site : string;
      epoch : int;
      seq : int;
      mid : int;
      applied : bool;  (* false: slot consumed but payload was a mid-dup *)
    }
  | Restarted of { time : float; incarnation : int }
  | Epoch_proposed of { time : float; epoch : int; rules : Rule.t list }
  | Epoch_cutover of { time : float; epoch : int }
  | Epoch_retired of { time : float; epoch : int }
  | Epoch_rollback of {
      time : float;
      from_epoch : int;  (* the cutover being undone *)
      to_epoch : int;  (* the epoch whose program is re-proposed *)
      reason : string;
    }
  | Checkpoint of {
      time : float;
      incarnation : int;
      store : (Item.t * Value.t) list;  (* in item order *)
      links : link_state list;  (* in peer order *)
      rule_epochs : (int * epoch_phase * Rule.t list) list;
          (* epochs other than a sole base epoch, ascending; epoch 0's
             rules are configuration and serialize as [] *)
      active_epoch : int;
    }

let record_kind = function
  | Event _ -> "event"
  | Fire_sent _ -> "fire_sent"
  | Store_write _ -> "store_write"
  | Outbound _ -> "outbound"
  | Acked _ -> "acked"
  | Delivered _ -> "delivered"
  | Restarted _ -> "restarted"
  | Epoch_proposed _ -> "epoch_proposed"
  | Epoch_cutover _ -> "epoch_cutover"
  | Epoch_retired _ -> "epoch_retired"
  | Epoch_rollback _ -> "epoch_rollback"
  | Checkpoint _ -> "checkpoint"

let link_state_to_string l =
  Printf.sprintf "%s next_mid=%d unacked=[%s] in=e%d/s%d mids=[%s]" l.peer
    l.next_mid
    (String.concat ";"
       (List.map
          (fun (mid, epoch, seq, payload) ->
            Printf.sprintf "m%d:e%d:s%d:%s" mid epoch seq (Msg.summary payload))
          l.unacked))
    l.in_epoch l.in_expected
    (String.concat ";" (List.map string_of_int l.delivered_mids))

let record_to_string r =
  match r with
  | Event { time; site; desc } ->
    Printf.sprintf "%.3f event %s %s" time site
      (Cm_rule.Event.desc_to_string desc)
  | Fire_sent { time; rule_id; to_site; trigger_id } ->
    Printf.sprintf "%.3f fire_sent %s -> %s trigger=%d" time rule_id to_site
      trigger_id
  | Store_write { time; item; value } ->
    Printf.sprintf "%.3f store_write %s = %s" time (Item.to_string item)
      (Value.to_string value)
  | Outbound { time; to_site; mid; epoch; seq; payload } ->
    Printf.sprintf "%.3f outbound -> %s m%d e%d s%d %s" time to_site mid epoch
      seq (Msg.summary payload)
  | Acked { time; to_site; mid } ->
    Printf.sprintf "%.3f acked -> %s m%d" time to_site mid
  | Delivered { time; from_site; epoch; seq; mid; applied } ->
    Printf.sprintf "%.3f delivered <- %s e%d s%d m%d %s" time from_site epoch
      seq mid
      (if applied then "applied" else "dup")
  | Restarted { time; incarnation } ->
    Printf.sprintf "%.3f restarted incarnation=%d" time incarnation
  | Epoch_proposed { time; epoch; rules } ->
    Printf.sprintf "%.3f epoch_proposed e%d rules={%s}" time epoch
      (String.concat "; " (List.map Rule.to_string rules))
  | Epoch_cutover { time; epoch } ->
    Printf.sprintf "%.3f epoch_cutover e%d" time epoch
  | Epoch_retired { time; epoch } ->
    Printf.sprintf "%.3f epoch_retired e%d" time epoch
  | Epoch_rollback { time; from_epoch; to_epoch; reason } ->
    Printf.sprintf "%.3f epoch_rollback e%d -> e%d (%s)" time from_epoch
      to_epoch reason
  | Checkpoint { time; incarnation; store; links; rule_epochs; active_epoch } ->
    (* The epochs section only appears once a site has evolved, keeping
       checkpoint bytes stable for non-evolving systems. *)
    let epochs_part =
      if rule_epochs = [] && active_epoch = 0 then ""
      else
        Printf.sprintf " epochs={%s} active=e%d"
          (String.concat "|"
             (List.map
                (fun (e, phase, rules) ->
                  Printf.sprintf "e%d:%s:{%s}" e (epoch_phase_to_string phase)
                    (String.concat "; " (List.map Rule.to_string rules)))
                rule_epochs))
          active_epoch
    in
    Printf.sprintf "%.3f checkpoint incarnation=%d store={%s} links={%s}%s" time
      incarnation
      (String.concat ";"
         (List.map
            (fun (item, v) ->
              Printf.sprintf "%s=%s" (Item.to_string item) (Value.to_string v))
            store))
      (String.concat "|" (List.map link_state_to_string links))
      epochs_part

type t = {
  site : string;
  obs : Obs.t;
  mutable rev_records : record list;  (* newest first *)
  mutable count : int;
  mutable checkpoints : int;
  mutable incarnation : int;  (* count of Restarted records appended *)
}

type stats = { appends : int; checkpoints : int; incarnation : int }

(* Records are kept as values; only a checkpoint is rendered here, for
   the size series that tracks what a checkpoint costs to write. *)
let append t r =
  t.rev_records <- r :: t.rev_records;
  t.count <- t.count + 1;
  Obs.incr t.obs "journal_appends"
    ~labels:[ ("site", t.site); ("kind", record_kind r) ];
  match r with
  | Restarted { incarnation; _ } -> t.incarnation <- incarnation
  | Checkpoint _ ->
    t.checkpoints <- t.checkpoints + 1;
    Obs.observe t.obs "journal_checkpoint_bytes" ~labels:[ ("site", t.site) ]
      (float_of_int (String.length (record_to_string r) + 1))
  | _ -> ()

let records t = List.rev t.rev_records
let length t = t.count
let incarnation (t : t) = t.incarnation

let stats t =
  { appends = t.count; checkpoints = t.checkpoints; incarnation = t.incarnation }

(* The fold reads the log as: the newest checkpoint (if any) plus every
   record after it, oldest first.  Without checkpoints the whole stream
   comes back. *)
let replay_base t : record option * record list =
  let rec split after rs : record option * record list =
    match rs with
    | [] -> (None, after)
    | Checkpoint _ as c :: _ -> (Some c, after)
    | r :: rest -> split (r :: after) rest
  in
  split [] t.rev_records

(* -- the replay fold: the one reader of the log -- *)

type epoch_op =
  | Op_propose of int * Rule.t list
  | Op_cutover of int
  | Op_retire of int

type replay = {
  incarnation : int;
  store : (Item.t * Value.t) list;
  links : link_state list;
  sent_to : string list;
  epoch_ops : epoch_op list;
  replayed : int;
}

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)
module String_map = Map.Make (String)

(* One peer's transport state while folding; [sender] is set once an
   outbound or ack record (or a checkpoint) names the peer. *)
type peer = {
  mutable sender : bool;
  mutable next_mid : int;
  mutable unacked : (int * int * Msg.t) Int_map.t;  (* mid -> epoch, seq, payload *)
  mutable in_epoch : int;
  mutable in_expected : int;
  mutable delivered : Int_set.t;
}

let replay t =
  let base, rest = replay_base t in
  let store = ref Item.Map.empty and peers = ref String_map.empty in
  let incarnation = ref 0 and rev_ops = ref [] in
  let peer ?(sender = false) name =
    let p =
      match String_map.find_opt name !peers with
      | Some p -> p
      | None ->
        let p =
          { sender; next_mid = 0; unacked = Int_map.empty; in_epoch = 0;
            in_expected = 0; delivered = Int_set.empty }
        in
        peers := String_map.add name p !peers;
        p
    in
    if sender then p.sender <- true;
    p
  in
  (match base with
   | Some (Checkpoint c) ->
     (* The frozen epoch phases reconstruct canonically as an op
        sequence: all proposals ascending, then a cutover for every
        epoch past the proposed phase ascending (cutovers are monotonic,
        so the last one is the active epoch), then the retirements.  A
        retire of a merely proposed epoch is impossible, so phases
        determine the ops unambiguously. *)
     let ops keep op =
       List.filter_map
         (fun (e, phase, rules) -> if keep e phase then Some (op e rules) else None)
         c.rule_epochs
     in
     rev_ops :=
       List.rev
         (ops (fun e _ -> e > 0) (fun e rules -> Op_propose (e, rules))
         @ ops (fun e phase -> e > 0 && phase <> Ep_proposed) (fun e _ -> Op_cutover e)
         @ ops (fun _ phase -> phase = Ep_retired) (fun e _ -> Op_retire e));
     incarnation := c.incarnation;
     store := Item.Map.of_seq (List.to_seq c.store);
     List.iter
       (fun (l : link_state) ->
         let p = peer ~sender:true l.peer in
         p.next_mid <- l.next_mid;
         p.unacked <-
           Int_map.of_seq
             (Seq.map (fun (mid, e, s, m) -> (mid, (e, s, m))) (List.to_seq l.unacked));
         p.in_epoch <- l.in_epoch;
         p.in_expected <- l.in_expected;
         p.delivered <- Int_set.of_list l.delivered_mids)
       c.links
   | _ -> ());
  List.iter
    (function
      | Store_write { item; value; _ } -> store := Item.Map.add item value !store
      | Outbound { to_site; mid; epoch; seq; payload; _ } ->
        let p = peer ~sender:true to_site in
        p.next_mid <- max p.next_mid (mid + 1);
        p.unacked <- Int_map.add mid (epoch, seq, payload) p.unacked
      | Acked { to_site; mid; _ } ->
        let p = peer ~sender:true to_site in
        p.unacked <- Int_map.remove mid p.unacked
      | Delivered { from_site; epoch; seq; mid; _ } ->
        let p = peer from_site in
        p.in_epoch <- epoch;
        p.in_expected <- seq + 1;
        p.delivered <- Int_set.add mid p.delivered
      | Restarted { incarnation = n; _ } -> incarnation := max !incarnation n
      | Epoch_proposed { epoch; rules; _ } ->
        rev_ops := Op_propose (epoch, rules) :: !rev_ops
      | Epoch_cutover { epoch; _ } -> rev_ops := Op_cutover epoch :: !rev_ops
      | Epoch_retired { epoch; _ } -> rev_ops := Op_retire epoch :: !rev_ops
      (* A rollback's epoch-state effects replay via its own proposal and
         cutover records. *)
      | Epoch_rollback _ | Event _ | Fire_sent _ | Checkpoint _ -> ())
    rest;
  let peers = String_map.bindings !peers in
  {
    incarnation = !incarnation;
    store = Item.Map.bindings !store;
    links =
      List.map
        (fun (name, p) ->
          {
            peer = name;
            next_mid = p.next_mid;
            unacked =
              List.map (fun (mid, (e, s, m)) -> (mid, e, s, m)) (Int_map.bindings p.unacked);
            in_epoch = p.in_epoch;
            in_expected = p.in_expected;
            delivered_mids = Int_set.elements p.delivered;
          })
        peers;
    sent_to = List.filter_map (fun (name, p) -> if p.sender then Some name else None) peers;
    epoch_ops = List.rev !rev_ops;
    replayed = List.length rest + (if Option.is_none base then 0 else 1);
  }

(* Epoch state implied by a transition sequence — the checkpoint's
   frozen form of [epoch_ops]. *)
let epoch_summary ops =
  let phases : (int, epoch_phase * Rule.t list) Hashtbl.t = Hashtbl.create 4 in
  let rules_of e = match Hashtbl.find_opt phases e with Some (_, r) -> r | None -> [] in
  let active = ref 0 in
  List.iter
    (function
      | Op_propose (e, rules) -> Hashtbl.replace phases e (Ep_proposed, rules)
      | Op_cutover e ->
        (* epoch 0 is configuration: it has no journaled rules *)
        Hashtbl.replace phases !active (Ep_draining, rules_of !active);
        Hashtbl.replace phases e (Ep_active, rules_of e);
        active := e
      | Op_retire e -> Hashtbl.replace phases e (Ep_retired, rules_of e))
    ops;
  let entries =
    Hashtbl.fold
      (fun e (phase, rules) acc -> (e, phase, if e = 0 then [] else rules) :: acc)
      phases []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  (entries, !active)

(* A checkpoint is the fold frozen into a record, so replay from it and
   replay from the origin agree by construction. *)
let checkpoint t ~time =
  let r = replay t in
  let rule_epochs, active_epoch = epoch_summary r.epoch_ops in
  append t
    (Checkpoint
       { time; incarnation = t.incarnation; store = r.store; links = r.links;
         rule_epochs; active_epoch })

let events t =
  List.filter_map
    (function
      | Event { time; site; desc } ->
        Some { Cm_rule.Event.id = 0; time; site; desc; kind = Cm_rule.Event.Spontaneous }
      | _ -> None)
    (records t)

let to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string buf (record_to_string r);
      Buffer.add_char buf '\n')
    (records t);
  Buffer.contents buf

(* -- registry: one journal per site, on shared stable storage -- *)

type registry = { reg_obs : Obs.t; by_site : (string, t) Hashtbl.t }

let create_registry ?(obs = Obs.noop) () = { reg_obs = obs; by_site = Hashtbl.create 8 }

let for_site reg ~site =
  match Hashtbl.find_opt reg.by_site site with
  | Some j -> j
  | None ->
    let j =
      { site; obs = reg.reg_obs; rev_records = []; count = 0; checkpoints = 0;
        incarnation = 0 }
    in
    Hashtbl.replace reg.by_site site j;
    j

let sites reg =
  Hashtbl.fold (fun site _ acc -> site :: acc) reg.by_site []
  |> List.sort compare
