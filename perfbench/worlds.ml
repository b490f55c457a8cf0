(* The benchmark worlds.  Each is assembled from an empty world
   (the set-up the [setup_s] metric times), driven by inputs generated
   here from the benchmark seed, run to quiescence, and then checked
   from outside: the output checks decide which ops count as failed. *)

module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Journal = Cm_core.Journal
module Reliable = Cm_core.Reliable
module Monitor = Cm_core.Monitor
module Guarantee = Cm_core.Guarantee
module Strategy = Cm_core.Strategy
module Fabric = Cm_shard.Shard.Fabric
module Route = Cm_route.Route
module Payroll = Cm_workload.Payroll
module Readers = Cm_workload.Readers
module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Prng = Cm_util.Prng
module Db = Cm_relational.Database
open Cm_rule

type workload = Dispatch | Ring | Serve

let workloads = [ ("dispatch", Dispatch); ("ring", Ring); ("serve", Serve) ]

(* Words allocated so far, counted once: a promoted word is in both
   [minor_words] and [major_words].  OCaml 5 folds the minor heap into
   these counters only at a minor collection, so empty it first. *)
let alloc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* A layer call made from the benchmark: a span when traced, a plain
   call otherwise (the timed runs carry no benchmark spans). *)
let phase traced ?op name f = if traced then Spans.span ?op name f else f ()

type world = {
  start : traced:bool -> unit;  (* arm the drivers; after set-up *)
  inject_end : float;  (* simulated time of the last injection *)
  advance : float -> unit;  (* untraced run up to a simulated time *)
  until : float;  (* quiescence: advancing here finishes the run *)
  run_traced : unit -> unit;  (* to quiescence, wheel stepped by the benchmark *)
  attempted : unit -> int;
  failed : unit -> int;  (* output checks; call once, after the run *)
  systems : Sys_.t list;
  rules : Rule.t list;  (* the installed program, for the replays *)
  locator : Item.locator;
  install_words : float;  (* measured when assembled traced, else 0 *)
  counters : unit -> (string * float) list;  (* world-specific counts *)
  replay : unit -> unit;  (* world-specific replay spans *)
  digest : unit -> string option;
}

(* Measure words around [install] only when traced. *)
let install traced f =
  if not traced then begin
    f ();
    0.0
  end
  else begin
    let a0 = alloc_words () in
    Spans.span "setup.install" f;
    alloc_words () -. a0
  end

(* When traced, the benchmark steps the wheel itself so each
   [Sim.step] is a span; the nested intake/read/update spans are its
   children.  [Sim.run] afterwards only advances the clock. *)
let step_to sim ~until =
  let rec loop () =
    match Sim.next_at sim with
    | Some t when t <= until ->
      Spans.span "sim.step" (fun () -> ignore (Sim.step sim));
      loop ()
    | _ -> ()
  in
  loop ();
  Sim.run ~until sim

(* ------------------------------------------------------------------ *)
(* Grid worlds: dispatch and ring.  Op j injects an event at site
   [site.(j)] on rule/item [k.(j)] with value j (the value tags the op,
   so the checks are per op) at simulated time [j * interval].        *)

type grid = { sites : int; per_site : int; site : int array; k : int array; interval : float }

let gen_grid ~seed ~sites ~per_site ~ops ~rate =
  let rng = Prng.of_key ~seed "grid" in
  let site = Array.make ops 0 and k = Array.make ops 0 in
  for j = 0 to ops - 1 do
    site.(j) <- Prng.int rng sites;
    k.(j) <- Prng.int rng per_site
  done;
  { sites; per_site; site; k; interval = 1.0 /. rate }

let site_of s = "s" ^ string_of_int s
let base_of s k = Printf.sprintf "X%d_%d" s k

let grid_locator item =
  let base = item.Item.base in
  match String.index_opt base '_' with
  | Some i -> "s" ^ String.sub base 1 (i - 1)
  | None -> site_of 0

let site_index site = int_of_string (String.sub site 1 (String.length site - 1))
let time g j = float_of_int j *. g.interval

let grid_desc name s k j =
  { Event.name; args = [ Event.Ai (Item.make (base_of s k)); Event.Av (Value.Int j) ] }

let no_counters () = []
let no_replay () = ()
let no_digest () = None

(* Common counters the main loop turns into per-op ratios. *)
let system_counters systems =
  let sum f = List.fold_left (fun acc s -> acc +. float_of_int (f s)) 0.0 systems in
  let rel f =
    sum (fun s -> match Sys_.reliable s with Some r -> f (Reliable.stats r) | None -> 0)
  in
  [
    ("sim.steps", sum (fun s -> Sim.events_processed (Sys_.sim s)));
    ("net.messages", sum (fun s -> Net.messages_sent (Sys_.net s)));
    ( "reliable.frames",
      rel (fun st -> st.Reliable.data_sent + st.Reliable.retransmits + st.Reliable.acks_sent) );
    ("reliable.retransmits", rel (fun st -> st.Reliable.retransmits));
    ( "shell.fires_executed",
      sum (fun s ->
          List.fold_left (fun a (_, sh) -> a + Shell.fires_executed sh) 0 (Sys_.shells s)) );
    ( "journal.records",
      sum (fun s ->
          match Sys_.journals s with
          | None -> 0
          | Some reg ->
            List.fold_left
              (fun a site -> a + Journal.length (Journal.for_site reg ~site))
              0 (Journal.sites reg)) );
  ]

(* dispatch: the E15 shape.  Rules are installed shell-locally, each op
   matches exactly one rule, which chains a site-free Done event that
   matches nothing: two trace events per op. *)
let dispatch ~traced ~seed (g : grid) =
  let config = Sys_.Config.seeded seed in
  let system = Sys_.create ~config grid_locator in
  let sim = Sys_.sim system in
  let shells =
    Array.init g.sites (fun s ->
        phase traced "setup.add_shell" (fun () -> Sys_.add_shell system ~site:(site_of s)))
  in
  let done_step =
    { Rule.guard = Expr.Const (Value.Bool true); template = Template.make "Done" [ Expr.Var "v" ] }
  in
  let programs =
    Array.init g.sites (fun s ->
        List.init g.per_site (fun k ->
            Rule.make
              ~id:(Printf.sprintf "r%d_%d" s k)
              ~lhs:(Template.make "Upd" [ Expr.Item (base_of s k, []); Expr.Var "v" ])
              (Rule.Steps [ done_step ])))
  in
  let install_words =
    install traced (fun () ->
        Array.iteri (fun s shell -> Shell.install_strategy shell programs.(s)) shells)
  in
  let emitters = Array.init g.sites (fun s -> Shell.emitter_for shells.(s) ~site:(site_of s)) in
  let ops = Array.length g.site in
  let until = time g ops +. 100.0 in
  let start ~traced =
    let i = ref 0 in
    let rec drive () =
      let j = !i in
      incr i;
      let s = g.site.(j) in
      let desc = grid_desc "Upd" s g.k.(j) j in
      phase traced ~op:j "shell.intake" (fun () ->
          ignore (emitters.(s) desc ~kind:Event.Spontaneous));
      if !i < ops then Sim.schedule_at sim (time g !i) drive
    in
    if ops > 0 then Sim.schedule_at sim 0.0 drive
  in
  let failed () =
    (* Per op j: exactly one Upd(_, j) and one Done(j). *)
    let upd = Array.make ops 0 and dn = Array.make ops 0 in
    let tag (d : Event.desc) =
      List.find_map (function Event.Av (Value.Int j) -> Some j | _ -> None) d.args
    in
    List.iter
      (fun (e : Event.t) ->
        match tag e.desc with
        | Some j when j >= 0 && j < ops ->
          if e.desc.name = "Upd" then upd.(j) <- upd.(j) + 1
          else if e.desc.name = "Done" then dn.(j) <- dn.(j) + 1
        | _ -> ())
      (Trace.events (Sys_.trace system));
    let bad = ref 0 in
    for j = 0 to ops - 1 do
      if upd.(j) <> 1 || dn.(j) <> 1 then incr bad
    done;
    (* and nothing else: trace events = 2 x ops *)
    if Trace.length (Sys_.trace system) <> 2 * ops && !bad = 0 then ops else !bad
  in
  {
    start;
    inject_end = time g ops;
    advance = (fun t -> Sys_.run system ~until:t);
    until;
    run_traced = (fun () -> step_to sim ~until);
    attempted = (fun () -> ops);
    failed;
    systems = [ system ];
    rules = List.concat (Array.to_list programs);
    locator = grid_locator;
    install_words;
    counters = no_counters;
    replay = no_replay;
    digest = no_digest;
  }

(* The canonical lines (Fabric.canonical_lines format) the ring world
   must produce for op j: the injected U at its site, and the W its
   rule generates one link latency later at the next site. *)
let ring_expected g j =
  let s = g.site.(j) and k = g.k.(j) in
  let t = time g j in
  let s' = (s + 1) mod g.sites in
  let u = Event.desc_to_string (grid_desc "U" s k j) in
  let w = Event.desc_to_string (grid_desc "W" s' k j) in
  ( Printf.sprintf "%.6f %s spont %s" t (site_of s) u,
    Printf.sprintf "%.6f %s gen:r%d_%d@%.6f@%s@%s %s" (t +. 1.0) (site_of s') s k t (site_of s) u w )

let expected_digest g =
  let lines = ref [] in
  for j = Array.length g.site - 1 downto 0 do
    let a, b = ring_expected g j in
    lines := a :: b :: !lines
  done;
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort String.compare !lines)))

(* ring: the E20 ring, U(Xs_k, v) -> W(X(s+1)_k, v), installed once
   through the fabric (every shell receives the whole program).
   [durable] adds the reliable layer and per-site journals.  The ring
   workload runs it durable at one shard; its traced run also runs it
   plain at two shards, the only use of the sharded fabric. *)
let ring ~traced ~seed ~shards ~durable (g : grid) =
  let config =
    let c =
      Sys_.Config.(
        seeded seed |> with_shards shards |> with_latency { Net.base = 1.0; jitter = 0.0 })
    in
    if durable then
      Sys_.Config.(c |> with_reliable Reliable.default_config |> with_durability Journal.Journal)
    else c
  in
  let fab = Fabric.create ~config ~assign:(fun site -> site_index site mod shards) grid_locator in
  let shells =
    Array.init g.sites (fun s ->
        phase traced "setup.add_shell" (fun () -> Fabric.add_shell fab ~site:(site_of s)))
  in
  let rules = ref [] in
  for s = g.sites - 1 downto 0 do
    for k = g.per_site - 1 downto 0 do
      rules :=
        Rule.make
          ~id:(Printf.sprintf "r%d_%d" s k)
          ~delta:5.0
          ~lhs:(Template.make "U" [ Expr.Item (base_of s k, []); Expr.Var "v" ])
          (Rule.Steps
             [
               {
                 Rule.guard = Expr.Const (Value.Bool true);
                 template =
                   Template.make "W"
                     [ Expr.Item (base_of ((s + 1) mod g.sites) k, []); Expr.Var "v" ];
               };
             ])
        :: !rules
    done
  done;
  let install_words =
    install traced (fun () ->
        Fabric.install fab
          {
            Strategy.strategy_name = "bench-ring";
            description = "cross-site propagation ring";
            rules = !rules;
            aux_init = [];
          })
  in
  let emitters = Array.init g.sites (fun s -> Shell.emitter_for shells.(s) ~site:(site_of s)) in
  let ops = Array.length g.site in
  let until = time g ops +. 50.0 in
  (* One self-rescheduling driver per shard over the ops of its own
     sites, on its own wheel. *)
  let start ~traced =
    for p = 0 to shards - 1 do
      let mine =
        Array.of_list (List.filter (fun j -> g.site.(j) mod shards = p) (List.init ops Fun.id))
      in
      if Array.length mine > 0 then begin
        let sim = Sys_.sim (Fabric.system fab p) in
        let pos = ref 0 in
        let rec drive () =
          let j = mine.(!pos) in
          incr pos;
          let s = g.site.(j) in
          let desc = grid_desc "U" s g.k.(j) j in
          phase traced ~op:j "shell.intake" (fun () ->
              ignore (emitters.(s) desc ~kind:Event.Spontaneous));
          if !pos < Array.length mine then Sim.schedule_at sim (time g mine.(!pos)) drive
        in
        Fabric.at fab ~site:(site_of g.site.(mine.(0))) (time g mine.(0)) drive
      end
    done
  in
  let windows = ref 0 in
  let run_traced () =
    if shards = 1 then step_to (Sys_.sim (Fabric.system fab 0)) ~until
    else begin
      (* Fabric.run spawns its worker domains per call, so it is driven
         in chunks of lookahead windows rather than window by window. *)
      let l = Fabric.lookahead fab in
      let chunk = 25.0 *. l in
      let rec go t =
        if t < until then begin
          let u = Float.min until (t +. chunk) in
          Spans.span "shard.run" (fun () -> Fabric.run fab ~until:u);
          windows := !windows + int_of_float (Float.ceil ((u -. t) /. l)) + 1;
          go u
        end
      in
      go 0.0
    end
  in
  let failed () =
    if String.equal (Fabric.trace_digest fab) (expected_digest g) then 0
    else begin
      let actual = Hashtbl.create (4 * ops) in
      List.iter (fun l -> Hashtbl.replace actual l ()) (Fabric.canonical_lines fab);
      let bad = ref 0 in
      for j = 0 to ops - 1 do
        let a, b = ring_expected g j in
        if not (Hashtbl.mem actual a && Hashtbl.mem actual b) then incr bad
      done;
      (* every expected line present, yet extra events: all ops suspect *)
      if !bad = 0 then ops else !bad
    end
  in
  {
    start;
    inject_end = time g ops;
    advance = (fun t -> Fabric.run fab ~until:t);
    until;
    run_traced;
    attempted = (fun () -> ops);
    failed;
    systems = List.init shards (Fabric.system fab);
    rules = !rules;
    locator = grid_locator;
    install_words;
    counters =
      (fun () ->
        [
          ("shard.forwarded", float_of_int (Fabric.messages_forwarded fab));
          ("shard.windows", float_of_int !windows);
        ]);
    replay = no_replay;
    digest = (fun () -> Some (Fabric.trace_digest fab));
  }

(* ------------------------------------------------------------------ *)
(* serve: the payroll federation behind a κ-SLO read router.          *)

let slo = 20.0
let upd_interval = 0.25
let reads_per_update = 20.0

type serve_inputs = {
  employees : int;
  emp : int array;
  salary : int array;
  interfaces : Rule.t list;
  seed : int;
}

let interfaces_file = "examples/config/interfaces.rules"

let gen_serve ~seed ~employees ~updates =
  let rng = Prng.of_key ~seed "serve" in
  let emp = Array.make updates 0 and salary = Array.make updates 0 in
  for j = 0 to updates - 1 do
    emp.(j) <- Prng.int rng employees;
    salary.(j) <- 1000 + Prng.int rng 9000
  done;
  let interfaces =
    Parser.parse_rules (In_channel.with_open_text interfaces_file In_channel.input_all)
  in
  { employees; emp; salary; interfaces; seed }

let emp_name i = "e" ^ string_of_int (i + 1)
let update_sql = "UPDATE employees SET salary = $b WHERE empid = $n"

let serve ~traced ~seed (inp : serve_inputs) =
  let config = Sys_.Config.(seeded seed |> with_monitor true) in
  if traced then begin
    (* Payroll.create adds its two shells itself; time the same
       add_shell calls on an empty system of the same configuration. *)
    let empty = Sys_.create ~config Payroll.locator in
    List.iter
      (fun site -> phase traced "setup.add_shell" (fun () -> ignore (Sys_.add_shell empty ~site)))
      [ Payroll.site_a; Payroll.site_b ]
  end;
  let p = Payroll.create ~config ~employees:inp.employees () in
  let install_words = install traced (fun () -> Payroll.install_propagation p) in
  let route =
    Route.create ~interfaces:inp.interfaces p.Payroll.system
      ~constraints:[ ("Salary1", "Salary2") ]
  in
  let monitor =
    match Sys_.monitor p.Payroll.system with
    | Some m -> m
    | None -> failwith "serve: monitor not enabled"
  in
  Monitor.note_initial monitor p.Payroll.initial;
  let system = p.Payroll.system in
  let sim = Sys_.sim system in
  let ops_upd = Array.length inp.emp in
  let inject_end = float_of_int ops_upd *. upd_interval in
  let until = inject_end +. 30.0 in
  let reads = ref 0 and replica = ref 0 and over_slo = ref 0 in
  let start ~traced =
    let i = ref 0 in
    let rec drive () =
      let j = !i in
      incr i;
      phase traced ~op:j "source.update" (fun () ->
          Payroll.update_salary p ~emp:(emp_name inp.emp.(j)) ~salary:inp.salary.(j));
      if !i < ops_upd then Sim.schedule_at sim (float_of_int !i *. upd_interval) drive
    in
    if ops_upd > 0 then Sim.schedule_at sim 0.0 drive;
    let clients = [ (Payroll.site_a, 400); (Payroll.site_b, 600) ] in
    Readers.open_loop sim
      ~rng:(Prng.of_key ~seed:inp.seed "reads")
      ~clients
      ~rate_per_client:(reads_per_update /. upd_interval /. 1000.0)
      ~until:inject_end
      (fun ~site ->
        let r = !reads in
        incr reads;
        let d =
          phase traced ~op:(ops_upd + r) "route.read" (fun () ->
              Route.read ~within_kappa:slo route ~client_site:site "Salary1")
        in
        if d.Route.d_outcome = Route.Replica then incr replica;
        if d.Route.d_served_kappa > slo then incr over_slo)
  in
  let failed () =
    (* Copies converged: every Salary2(n) = Salary1(n); updates to a
       diverged employee count as failed. *)
    let diverged = Array.make inp.employees false in
    for e = 0 to inp.employees - 1 do
      let n = emp_name e in
      diverged.(e) <- not (Value.equal (Payroll.salary_at p `A n) (Payroll.salary_at p `B n))
    done;
    let bad_updates = Array.fold_left (fun a e -> if diverged.(e) then a + 1 else a) 0 inp.emp in
    (* Streamed monitor verdicts = the post-hoc fold, per instance. *)
    let horizon = Sim.now sim in
    Monitor.finalize monitor ~horizon;
    let tl = Sys_.timeline ~initial:p.Payroll.initial system in
    let verdicts = Monitor.family_verdicts monitor ~source:"Salary1" ~target:"Salary2" in
    let mismatches =
      if verdicts = [] then ops_upd (* the monitor watched nothing *)
      else
        List.fold_left
          (fun a (g, v) ->
            let rep = Guarantee.check ~horizon tl g in
            if
              Bool.equal v.Monitor.v_holds rep.Guarantee.holds
              && v.Monitor.v_points = rep.Guarantee.checked_points
            then a
            else a + 1)
          0 verdicts
    in
    bad_updates + !over_slo + mismatches
  in
  let kappa =
    match Sys_.copy_qualifies system ~source:"Salary1" ~target:"Salary2" with
    | Ok k -> Some k
    | Error _ -> None
  in
  let events () = Trace.events (Sys_.trace system) in
  let count name = List.length (List.filter (fun (e : Event.t) -> e.desc.name = name) (events ())) in
  let counters () =
    [
      ("route.reads", float_of_int !reads);
      ("route.replica", float_of_int !replica);
      ("database.statements", float_of_int (ops_upd + count "WR" + count "RR"));
    ]
  in
  let replay () =
    let evs = events () in
    (* Monitor.feed of the run's trace into a fresh monitor. *)
    let m = Monitor.create () in
    Monitor.watch_copy m ~source:"Salary1" ~target:"Salary2" ~kappa;
    Monitor.note_initial m p.Payroll.initial;
    Spans.span ~calls:(List.length evs) "monitor.feed" (fun () -> List.iter (Monitor.feed m) evs);
    (* Database.exec of the run's statements on a fresh copy: the
       application updates at A and the translator writes at B. *)
    let db = Db.create () in
    let must = function Ok _ -> () | Error e -> failwith (Db.error_to_string e) in
    must (Db.exec db "CREATE TABLE employees (empid TEXT PRIMARY KEY, salary INT NOT NULL)");
    List.iter
      (fun (item, v) ->
        if item.Item.base = "Salary1" then
          must
            (Db.exec db "INSERT INTO employees VALUES ($n, $s)"
               ~params:[ ("n", List.hd item.Item.params); ("s", v) ]))
      p.Payroll.initial;
    let stmts =
      List.init ops_upd (fun j -> [ ("b", Value.Int inp.salary.(j)); ("n", Value.Str (emp_name inp.emp.(j))) ])
      @ List.filter_map
          (fun (e : Event.t) ->
            match (e.desc.name, e.desc.args) with
            | "WR", [ Event.Ai it; Event.Av v ] -> Some [ ("b", v); ("n", List.hd it.Item.params) ]
            | _ -> None)
          evs
    in
    Spans.span ~calls:(List.length stmts) "database.exec" (fun () ->
        List.iter (fun params -> must (Db.exec db ~params update_sql)) stmts)
  in
  {
    start;
    inject_end;
    advance = (fun t -> Sys_.run system ~until:t);
    until;
    run_traced = (fun () -> step_to sim ~until);
    attempted = (fun () -> ops_upd + !reads);
    failed;
    systems = [ system ];
    rules = Sys_.strategy_rules system;
    locator = Sys_.locator system;
    install_words;
    counters;
    replay;
    digest = no_digest;
  }
