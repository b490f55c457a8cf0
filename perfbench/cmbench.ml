(* The repository benchmark.  See README.md in this directory for the
   metrics, the workloads and the layer map.

     cmbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0: timed rounds for S seconds in four part processes
   (Obs.noop, no benchmark spans); prints the end-to-end metrics.
   --trace 1: the per-layer run
   — setup scaling, untraced reference rounds, one traced round and the
   replays; prints the per-layer table, writes the spans as Chrome
   trace-event JSON under .bench_out/, and prints the per-layer
   metrics.  The last line of stdout is always the JSON result. *)

open Cm_rule
module W = Worlds

(* Sizes per workload: world shape, ops per timed round, ops in the
   traced round (smaller: it keeps every span), injection rate in ops
   per simulated second. *)
type inputs = Grid of W.grid | Serve of W.serve_inputs

let gen wl ~seed ~traced =
  match wl with
  | W.Dispatch ->
    Grid
      (W.gen_grid ~seed ~sites:32 ~per_site:256 ~ops:(if traced then 20_000 else 30_000)
         ~rate:1000.0)
  | W.Ring ->
    Grid
      (W.gen_grid ~seed ~sites:128 ~per_site:16 ~ops:(if traced then 10_000 else 30_000)
         ~rate:200.0)
  | W.Serve ->
    Serve (W.gen_serve ~seed ~employees:200 ~updates:(if traced then 1_000 else 4_000))

(* The same world at half its scaling dimension (sites, or employees),
   with no ops: the setup-scaling exponent's second point. *)
let half = function
  | Grid g -> Grid { g with W.sites = g.W.sites / 2; site = [||]; k = [||] }
  | Serve s -> Serve { s with W.employees = s.W.employees / 2; emp = [||]; salary = [||] }

let build wl ~traced ~seed inputs =
  match (wl, inputs) with
  | W.Dispatch, Grid g -> W.dispatch ~traced ~seed g
  | W.Ring, Grid g -> W.ring ~traced ~seed ~shards:1 ~durable:true g
  | W.Serve, Serve s -> W.serve ~traced ~seed s
  | _ -> invalid_arg "build: inputs do not match the workload"

let workload_name wl = fst (List.find (fun (_, w) -> w = wl) W.workloads)

let now () = Spans.now_ns () /. 1e9

let quantile q = function
  | [] -> 0.0
  | l ->
    (* linear interpolation between closest ranks *)
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let x = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float x in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((a.(j) -. a.(i)) *. (x -. float_of_int i))

let median = quantile 0.5

let finite x = if Float.is_finite x then x else 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Host speed.  On a shared host the speed of a core drifts by up to 2x
   within seconds, far more than the regressions the bounds must catch;
   most of it is contention for the shared cache and memory bandwidth.
   A fixed probe — two read-modify-write passes over an 8 MiB buffer,
   larger than L2, held outside the OCaml heap and allocating nothing,
   so neither the repository's code nor the state of its heap can move
   it — is timed right before and after each timed leg, and the leg's
   wall time is scaled by [probe_nominal_s] over the mean of the two
   probe times: the time the leg would have taken on a host where the
   probe takes [probe_nominal_s].  The raw figures are printed too.    *)

let probe_nominal_s = 0.004

let probe_buf =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20) in
  Bigarray.Array1.fill b 1;
  b

let probe () =
  let t = now () in
  let acc = ref 0 in
  for _ = 1 to 2 do
    for i = 0 to Bigarray.Array1.dim probe_buf - 1 do
      let v = Bigarray.Array1.unsafe_get probe_buf i in
      Bigarray.Array1.unsafe_set probe_buf i (v + 1);
      acc := !acc + v
    done
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t

(* ------------------------------------------------------------------ *)
(* One untraced round: set up from an empty world, run to quiescence,
   check.  A full major collection before set-up and before the run
   keeps one round's garbage out of the next round's numbers.  The run
   is timed in [legs] equal slices of the injection window plus the
   drain to quiescence, with a probe between legs.                     *)

let legs = 16

type sample = {
  setup : float;
  setup_ref : float;  (* at the probe's reference speed *)
  secs : float;
  secs_ref : float;
  ops : int;
  failed : int;
  words : float;
  words_e15 : float;  (* minor + major, E15's count: promoted words twice *)
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  digest : string option;
}

let round wl ~seed inputs =
  Gc.full_major ();
  let p0 = probe () in
  let t0 = now () in
  let w = build wl ~traced:false ~seed inputs in
  let setup = now () -. t0 in
  let p1 = probe () in
  w.W.start ~traced:false;
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let secs = ref 0.0 and secs_ref = ref 0.0 and p = ref (probe ()) in
  let leg until =
    let t = now () in
    w.W.advance until;
    let d = now () -. t in
    let p' = probe () in
    secs := !secs +. d;
    secs_ref := !secs_ref +. (d *. 2.0 *. probe_nominal_s /. (!p +. p'));
    p := p'
  in
  for i = 1 to legs do
    leg (w.W.inject_end *. float_of_int i /. float_of_int legs)
  done;
  leg w.W.until;
  let gcs = Gc.quick_stat () in
  (* counters are exact only once the minor heap is emptied *)
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let minor = g1.minor_words -. g0.minor_words and major = g1.major_words -. g0.major_words in
  let promoted = g1.promoted_words -. g0.promoted_words in
  let ops = w.W.attempted () in
  {
    setup;
    setup_ref = setup *. 2.0 *. probe_nominal_s /. (p0 +. p1);
    secs = !secs;
    secs_ref = !secs_ref;
    ops;
    failed = min ops (w.W.failed ());
    words = minor +. major -. promoted;
    words_e15 = minor +. major;
    minor_gcs = gcs.minor_collections - g0.minor_collections;
    major_gcs = gcs.major_collections - g0.major_collections;
    promoted;
    digest = w.W.digest ();
  }

let ops_per_s s = float_of_int s.ops /. s.secs

(* ------------------------------------------------------------------ *)
(* Result line *)

let json_result ~failed ~attempted metrics =
  let m =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (finite v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && attempted > 0)
    attempted failed (String.concat ", " m)

let print_digest samples =
  match List.filter_map (fun s -> s.digest) samples with
  | [] -> ()
  | d :: rest ->
    Printf.printf "canonical trace digest: %s%s\n" d
      (if List.for_all (String.equal d) rest then "" else " (differs across rounds)")

(* ------------------------------------------------------------------ *)
(* --trace 0: the end-to-end metrics. *)

(* A timed run is [parts] processes, run one after the other, each
   doing rounds for its share of the seconds.  Besides host drift, a
   process has its own speed (address-space layout, core placement):
   within a process the rounds agree, across processes they differ by
   10-20%.  Each metric is the median over the parts of the part's own
   figure.                                                             *)
let parts = 4
let min_rounds = 2

(* One part: rounds for [seconds], then its figures on a "part" line. *)
let part wl ~seed ~seconds =
  let inputs = gen wl ~seed ~traced:false in
  let t_start = now () in
  let rec rounds acc =
    if List.length acc >= min_rounds && now () -. t_start >= seconds then List.rev acc
    else rounds (round wl ~seed inputs :: acc)
  in
  let ss = rounds [] in
  let attempted = List.fold_left (fun a s -> a + s.ops) 0 ss in
  let failed = List.fold_left (fun a s -> a + s.failed) 0 ss in
  let top = (Gc.quick_stat ()).top_heap_words in
  let per_op f = median (List.map (fun s -> f s /. float_of_int s.ops) ss) in
  let raw = List.map ops_per_s ss in
  Printf.printf "%d rounds of %d ops; raw ops/s %.0f-%.0f, raw setup %.4f s, host slowness %.2f\n"
    (List.length ss) (List.hd ss).ops
    (List.fold_left Float.min infinity raw)
    (List.fold_left Float.max 0.0 raw)
    (median (List.map (fun s -> s.setup) ss))
    (median (List.map (fun s -> s.secs /. s.secs_ref) ss));
  Printf.printf "alloc words/op: %.1f counted once; %.1f as minor + major (promoted twice)\n"
    (per_op (fun s -> s.words)) (per_op (fun s -> s.words_e15));
  print_digest ss;
  (* Interference only ever slows a round, so the upper quartile of the
     per-round rates is steadier than their median, and unlike the
     maximum it does not rest on one round. *)
  Printf.printf "part %.17g %.17g %.17g %.17g %d %d\n"
    (quantile 0.75 (List.map (fun s -> float_of_int s.ops /. s.secs_ref) ss))
    (per_op (fun s -> s.words))
    (float_of_int (top * (Sys.word_size / 8)) /. 1e6)
    (median (List.map (fun s -> s.setup_ref) ss))
    attempted failed

let timed wl ~seed ~seconds =
  let run_part i =
    let args =
      [| Sys.executable_name; "--workload"; workload_name wl; "--seed"; string_of_int seed;
         "--seconds"; Printf.sprintf "%.17g" (seconds /. float_of_int parts); "--part" |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let result = ref None in
    In_channel.input_all ic |> String.split_on_char '\n'
    |> List.iter (fun line ->
           match Scanf.sscanf_opt line "part %f %f %f %f %d %d%!" (fun a b c d e f -> (a, b, c, d, e, f)) with
           | Some r -> result := Some r
           | None -> if line <> "" then Printf.printf "[part %d] %s\n" i line);
    match (Unix.close_process_in ic, !result) with
    | Unix.WEXITED 0, Some r -> r
    | _ ->
      prerr_endline "cmbench: a part failed";
      exit 1
  in
  let rs = List.init parts run_part in
  let med f = median (List.map f rs) in
  let attempted = List.fold_left (fun a (_, _, _, _, n, _) -> a + n) 0 rs in
  let failed = List.fold_left (fun a (_, _, _, _, _, n) -> a + n) 0 rs in
  json_result ~failed ~attempted
    [
      ("ops_per_s", "1/s", med (fun (x, _, _, _, _, _) -> x));
      ("alloc_words_per_op", "words/op", med (fun (_, x, _, _, _, _) -> x));
      ("heap_peak_mb", "MB", med (fun (_, _, x, _, _, _) -> x));
      ("setup_s", "s", med (fun (_, _, _, x, _, _) -> x));
      ("ok_ops_ratio", "ratio", float_of_int (attempted - failed) /. float_of_int attempted);
    ]

(* ------------------------------------------------------------------ *)
(* --trace 1: the per-layer metrics. *)

(* Replays of the traced round through single layers' public calls,
   each one batch span; returns the counts the ratios need. *)
let replay (w : W.world) =
  let evs =
    List.concat_map (fun s -> Trace.events (W.Sys_.trace s)) w.W.systems
    |> List.stable_sort (fun (a : Event.t) (b : Event.t) -> Float.compare a.time b.time)
  in
  let n = List.length evs in
  let idx = Rule_index.create () in
  List.iter (fun r -> Rule_index.add idx ~lhs:r.Rule.lhs ~site:(Rule.lhs_site r w.W.locator) r) w.W.rules;
  let select (e : Event.t) = Rule_index.select idx ~local_site:e.site ~event_site:e.site ~desc:e.desc in
  let cands = ref 0 in
  Spans.span ~calls:n "rule_index.select" (fun () ->
      List.iter (fun e -> cands := !cands + List.length (select e)) evs);
  let pairs = List.concat_map (fun e -> List.map (fun r -> (e, r)) (select e)) evs in
  let matches ((e : Event.t), (r : Rule.t)) = Template.matches r.lhs e.desc ~seed:Expr.empty_env in
  let hits = ref 0 in
  Spans.span ~calls:(List.length pairs) "template.matches" (fun () ->
      List.iter (fun p -> if Option.is_some (matches p) then incr hits) pairs);
  let envs = List.filter_map matches pairs in
  Spans.span ~calls:(List.length envs) "msg.env_roundtrip" (fun () ->
      List.iter (fun env -> ignore (Cm_core.Msg.env_of_list (Cm_core.Msg.env_to_list env))) envs);
  let tr = Trace.create () in
  Spans.span ~calls:n "trace.record" (fun () ->
      List.iter (fun (e : Event.t) -> ignore (Trace.record tr ~time:e.time ~site:e.site ~kind:e.kind e.desc)) evs);
  let journals = List.filter_map W.Sys_.journals w.W.systems in
  if journals <> [] then begin
    let fresh = W.Journal.create_registry () in
    let records =
      List.concat_map
        (fun reg ->
          List.concat_map
            (fun site ->
              let j = W.Journal.for_site fresh ~site in
              List.map (fun r -> (j, r)) (W.Journal.records (W.Journal.for_site reg ~site)))
            (W.Journal.sites reg))
        journals
    in
    Spans.span ~calls:(List.length records) "journal.append" (fun () ->
        List.iter (fun (j, r) -> W.Journal.append j r) records);
    Spans.span ~calls:n "journal.desc_to_string" (fun () ->
        List.iter (fun (e : Event.t) -> ignore (Event.desc_to_string e.desc)) evs)
  end;
  w.W.replay ();
  [
    ("replay.events", float_of_int n);
    ("rule_index.candidates", float_of_int !cands);
    ("template.attempts", float_of_int (List.length pairs));
    ("template.hits", float_of_int !hits);
  ]

let print_table rows =
  Printf.printf "%-24s %8s %9s %12s %12s %10s\n" "layer call" "spans" "calls" "self ms" "self ns/call"
    "words/call";
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) rows []
  |> List.sort compare
  |> List.iter (fun (name, (r : Spans.row)) ->
         Printf.printf "%-24s %8d %9d %12.3f %12.1f %10.1f\n" name r.spans r.calls
           (r.self_ns /. 1e6)
           (ratio r.self_ns (float_of_int r.calls))
           (ratio r.self_words (float_of_int r.calls)))

let traced wl ~seed =
  let inputs = gen wl ~seed ~traced:true in
  (* Setup scaling: assemble the world at full and half size, three
     times each; medians of the add_shell and install span totals. *)
  let assemble inp =
    Gc.full_major ();
    Spans.reset ();
    let w = build wl ~traced:true ~seed inp in
    let rows = Spans.rows () in
    let incl name = match Hashtbl.find_opt rows name with Some r -> r.Spans.incl_ns /. 1e9 | None -> 0.0 in
    (incl "setup.add_shell", incl "setup.install", w.W.install_words, List.length w.W.rules)
  in
  let setup_medians inp =
    let runs = List.init 3 (fun _ -> assemble inp) in
    ( median (List.map (fun (a, _, _, _) -> a) runs),
      median (List.map (fun (_, i, _, _) -> i) runs),
      median (List.map (fun (_, _, w, r) -> w /. float_of_int (max 1 r)) runs) )
  in
  let add_full, inst_full, words_per_rule = setup_medians inputs in
  let add_half, inst_half, _ = setup_medians (half inputs) in
  let exponent full half = if full > 0.0 && half > 0.0 then Float.log2 (full /. half) else 0.0 in
  (* Untraced reference rounds at the traced round's size. *)
  let refs = List.init 3 (fun _ -> round wl ~seed inputs) in
  let untraced_ops_s = median (List.map ops_per_s refs) in
  let ref_ops = float_of_int (List.fold_left (fun a s -> a + s.ops) 0 refs) in
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 refs) in
  (* The traced round. *)
  Gc.full_major ();
  Spans.reset ();
  let w = build wl ~traced:true ~seed inputs in
  w.W.start ~traced:true;
  Gc.full_major ();
  let t1 = now () in
  w.W.run_traced ();
  let secs = now () -. t1 in
  let attempted = w.W.attempted () in
  let failed = min attempted (w.W.failed ()) in
  let counts = W.system_counters w.W.systems @ w.W.counters () @ replay w in
  let c name = try List.assoc name counts with Not_found -> 0.0 in
  let rows = Spans.rows () in
  let per_call f name =
    match Hashtbl.find_opt rows name with
    | Some r when r.Spans.calls > 0 -> f r /. float_of_int r.calls
    | _ -> 0.0
  in
  let ns = per_call (fun r -> r.Spans.self_ns) and words = per_call (fun r -> r.Spans.self_words) in
  let ops = float_of_int attempted in
  let traced_ops_s = ops /. secs in
  print_table rows;
  (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf ".bench_out/%s-seed%d.trace.json" (workload_name wl) seed in
  Spans.write_chrome path;
  Printf.printf "spans written to %s\n" path;
  Printf.printf "traced %.0f ops/s vs untraced %.0f ops/s\n" traced_ops_s untraced_ops_s;
  print_digest refs;
  (* ring only: the same inputs through the fabric at two shards, with
     no reliable layer or journal — the shard layer's figures.  It must
     reproduce the same canonical digest. *)
  let sh_attempted, sh_failed, forwarded, windows, window_ns =
    match (wl, inputs) with
    | W.Ring, Grid g ->
      Gc.full_major ();
      Spans.reset ();
      let s2 = W.ring ~traced:true ~seed ~shards:2 ~durable:false g in
      s2.W.start ~traced:true;
      s2.W.run_traced ();
      let n = s2.W.attempted () in
      let bad = min n (s2.W.failed ()) in
      let rows2 = Spans.rows () in
      let c2 name = try List.assoc name (s2.W.counters ()) with Not_found -> 0.0 in
      print_endline "shards = 2 pass:";
      print_table rows2;
      let path2 = Printf.sprintf ".bench_out/%s-seed%d-shards2.trace.json" (workload_name wl) seed in
      Spans.write_chrome path2;
      Printf.printf "spans written to %s\n" path2;
      Option.iter (Printf.printf "shards = 2 canonical trace digest: %s\n") (s2.W.digest ());
      let run_ns = match Hashtbl.find_opt rows2 "shard.run" with Some r -> r.Spans.incl_ns | None -> 0.0 in
      (n, bad, c2 "shard.forwarded" /. float_of_int n, c2 "shard.windows", ratio run_ns (c2 "shard.windows"))
    | _ -> (0, 0, 0.0, 0.0, 0.0)
  in
  let attempted = attempted + sh_attempted and failed = failed + sh_failed in
  json_result ~failed ~attempted
    [
      ("setup.add_shell_s", "s", add_full);
      ("setup.install_s", "s", inst_full);
      ("setup.install_words_per_rule", "words/rule", words_per_rule);
      ("setup.add_shell_exp", "1", exponent add_full add_half);
      ("setup.install_exp", "1", exponent inst_full inst_half);
      ("shell.intake_ns", "ns", ns "shell.intake");
      ("shell.intake_words", "words", words "shell.intake");
      ("sim.steps_per_op", "count/op", c "sim.steps" /. ops);
      ("sim.step_self_ns", "ns", ns "sim.step");
      ("rule_index.select_ns", "ns", ns "rule_index.select");
      ("rule_index.candidates_per_event", "count", ratio (c "rule_index.candidates") (c "replay.events"));
      ("rule_index.hit_ratio", "ratio", ratio (c "template.hits") (c "rule_index.candidates"));
      ("template.matches_ns", "ns", ns "template.matches");
      ("template.hit_ratio", "ratio", ratio (c "template.hits") (c "template.attempts"));
      ("msg.env_roundtrip_ns", "ns", ns "msg.env_roundtrip");
      ("msg.env_roundtrip_words", "words", words "msg.env_roundtrip");
      ("trace.record_ns", "ns", ns "trace.record");
      ("trace.words_per_event", "words", words "trace.record");
      ("journal.records_per_op", "count/op", c "journal.records" /. ops);
      ("journal.append_ns", "ns", ns "journal.append");
      ("journal.desc_to_string_ns", "ns", ns "journal.desc_to_string");
      ("net.messages_per_op", "count/op", c "net.messages" /. ops);
      ("reliable.frames_per_op", "count/op", c "reliable.frames" /. ops);
      ("reliable.retransmits", "count", c "reliable.retransmits");
      ("reliable.useful_ratio", "ratio", ratio (c "shell.fires_executed") (c "reliable.frames"));
      ("monitor.feed_ns", "ns", ns "monitor.feed");
      ("monitor.words_per_event", "words", words "monitor.feed");
      ("route.read_ns", "ns", ns "route.read");
      ("route.read_words", "words", words "route.read");
      ("route.replica_share", "ratio", ratio (c "route.replica") (c "route.reads"));
      ("source.update_ns", "ns", ns "source.update");
      ("database.exec_ns", "ns", ns "database.exec");
      ("database.statements_per_op", "count/op", c "database.statements" /. ops);
      ("shard.forwarded_per_op", "count/op", forwarded);
      ("shard.windows", "count", windows);
      ("shard.window_ns", "ns", window_ns);
      ("gc.minor_per_kop", "count/kop", 1000.0 *. sum (fun s -> s.minor_gcs) /. ref_ops);
      ("gc.major_per_kop", "count/kop", 1000.0 *. sum (fun s -> s.major_gcs) /. ref_ops);
      ( "gc.promoted_words_per_op",
        "words/op",
        List.fold_left (fun a s -> a +. s.promoted) 0.0 refs /. ref_ops );
      ("bench.tracing_overhead", "ratio", 1.0 -. (traced_ops_s /. untraced_ops_s));
    ]

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: cmbench --workload dispatch|ring|serve --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let is_part = ref false in
  let rec parse = function
    | "--part" :: rest ->
      (* internal: one process of a timed run *)
      is_part := true;
      trace := Some false;
      parse rest
    | "--workload" :: v :: rest ->
      workload := List.assoc_opt v W.workloads;
      if !workload = None then usage ();
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some wl, Some seed, Some seconds, Some _ when !is_part -> part wl ~seed ~seconds
  | Some wl, Some seed, Some seconds, Some tr when seconds > 0.0 ->
    Printf.printf "workload %s, seed %d, trace %b\n%!" (workload_name wl) seed tr;
    if tr then traced wl ~seed else timed wl ~seed ~seconds
  | _ -> usage ()
