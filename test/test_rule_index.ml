(* Property-based differential tests for Cm_rule.Rule_index.

   The index must be observationally equivalent to the naive linear
   scan it replaced in Shell.occurred: for any rule program and any
   event, [Rule_index.select] followed by template matching yields
   exactly the same (rule, environment) list — same members, same
   (registration) order — as [Rule_index.select_naive] followed by
   template matching.

   A seeded Prng drives a generator of random rule programs (random
   templates over shared pools of names, bases and sites, registered
   under random LHS sites or as site-free chaining rules) and random
   event streams (events derived from installed templates so matches
   actually happen, then mutated to cover near-misses: renamed, rebased,
   truncated, extended).  Every generated (program, event, site) triple
   is one differential case; the suite runs well over 1000 of them. *)

open Cm_rule
module Prng = Cm_util.Prng

let names = [| "EvA"; "EvB"; "EvC"; "EvD" |]
let bases = [| "A"; "B"; "C"; "D"; "E"; "F" |]
let sites = [| "s0"; "s1"; "s2"; "s3" |]
let vars = [| "u"; "v"; "w"; "x" |]

let gen_value rng =
  match Prng.int rng 4 with
  | 0 -> Value.Int (Prng.int rng 10)
  | 1 -> Value.Str (Printf.sprintf "c%d" (Prng.int rng 5))
  | 2 -> Value.Bool (Prng.bool rng)
  | _ -> Value.Float (float_of_int (Prng.int rng 7))

(* Item params are themselves template args restricted to Const/Var/
   Wildcard (Expr.is_template_arg). *)
let gen_param rng =
  match Prng.int rng 3 with
  | 0 -> Expr.Const (gen_value rng)
  | 1 -> Expr.Var (Prng.pick rng vars)
  | _ -> Expr.Wildcard

let gen_template_arg rng =
  match Prng.int rng 5 with
  | 0 -> Expr.Const (gen_value rng)
  | 1 | 2 -> Expr.Var (Prng.pick rng vars)
  | 3 -> Expr.Wildcard
  | _ ->
    let params = List.init (Prng.int rng 2) (fun _ -> gen_param rng) in
    Expr.Item (Prng.pick rng bases, params)

let gen_template rng =
  (* An occasional FALSE template: matches nothing on either path. *)
  if Prng.int rng 20 = 0 then Template.false_
  else
    let arity = Prng.int rng 4 in
    Template.make (Prng.pick rng names)
      (List.init arity (fun _ -> gen_template_arg rng))

(* A program: templates registered in order under random LHS sites
   (None = site-free chaining rule).  The payload is (registration id,
   template) so the oracle can re-run template matching. *)
let gen_program rng =
  let n = 1 + Prng.int rng 20 in
  let index = Rule_index.create () in
  let all = ref [] in
  for id = 0 to n - 1 do
    let tpl = gen_template rng in
    let site = if Prng.int rng 4 = 0 then None else Some (Prng.pick rng sites) in
    Rule_index.add index ~lhs:tpl ~site (id, tpl);
    all := (id, tpl, site) :: !all
  done;
  (index, List.rev !all)

(* Instantiate a template into a concrete event descriptor, then
   sometimes mutate it so near-misses (wrong name, wrong base, wrong
   arity) are covered too. *)
let gen_event_desc rng (tpl : Template.t) =
  let arg_of = function
    | Expr.Const v -> Event.Av v
    | Expr.Var _ | Expr.Wildcard ->
      if Prng.int rng 5 = 0 then Event.Ai (Item.make (Prng.pick rng bases))
      else Event.Av (gen_value rng)
    | Expr.Item (base, params) ->
      let params =
        List.map
          (function Expr.Const v -> v | _ -> gen_value rng)
          params
      in
      Event.Ai (Item.make base ~params)
    | _ -> Event.Av (gen_value rng)
  in
  let desc = { Event.name = tpl.Template.name; args = List.map arg_of tpl.Template.args } in
  match Prng.int rng 10 with
  | 0 -> { desc with Event.name = Prng.pick rng names }
  | 1 -> (
    (* Rebase the first item argument, if any. *)
    match desc.Event.args with
    | Event.Ai item :: rest ->
      { desc with
        Event.args = Event.Ai (Item.make (Prng.pick rng bases) ~params:item.Item.params) :: rest
      }
    | _ -> desc)
  | 2 ->
    { desc with
      Event.args = (match desc.Event.args with [] -> [] | _ :: rest -> rest) }
  | 3 -> { desc with Event.args = desc.Event.args @ [ Event.Av (gen_value rng) ] }
  | _ -> desc

let gen_desc_from_program rng program =
  match program with
  | [] -> { Event.name = Prng.pick rng names; args = [] }
  | _ ->
    let _, tpl, _ = List.nth program (Prng.int rng (List.length program)) in
    if Template.is_false tpl then { Event.name = Prng.pick rng names; args = [] }
    else gen_event_desc rng tpl

(* The observable outcome of dispatching [desc]: (rule id, sorted
   bindings) per match, in rule order. *)
let matches_of candidates desc =
  List.filter_map
    (fun (id, tpl) ->
      Template.matches tpl desc ~seed:Expr.empty_env
      |> Option.map (fun env -> (id, Expr.Env.bindings env)))
    candidates

let binding_to_string = function
  | Expr.Bval v -> Value.to_string v
  | Expr.Bitem item -> Item.to_string item

let outcome_to_string outcome =
  String.concat "; "
    (List.map
       (fun (id, bindings) ->
         Printf.sprintf "#%d{%s}" id
           (String.concat ","
              (List.map
                 (fun (x, b) -> x ^ "=" ^ binding_to_string b)
                 bindings)))
       outcome)

let check_case ~case index desc ~local_site ~event_site =
  let indexed =
    matches_of (Rule_index.select index ~local_site ~event_site ~desc) desc
  in
  let naive =
    matches_of (Rule_index.select_naive index ~local_site ~event_site) desc
  in
  if indexed <> naive then
    Alcotest.failf
      "case %d: %s at %s (local %s)\n  indexed: [%s]\n  naive:   [%s]" case
      (Event.desc_to_string desc) event_site local_site
      (outcome_to_string indexed) (outcome_to_string naive)

let differential_cases () =
  let rng = Prng.create ~seed:424242 in
  let cases = ref 0 in
  let matched = ref 0 in
  for _program = 1 to 300 do
    let index, program = gen_program rng in
    for _event = 1 to 5 do
      let desc = gen_desc_from_program rng program in
      let event_site = Prng.pick rng sites in
      let local_site =
        if Prng.bool rng then event_site else Prng.pick rng sites
      in
      incr cases;
      check_case ~case:!cases index desc ~local_site ~event_site;
      let produced =
        matches_of (Rule_index.select index ~local_site ~event_site ~desc) desc
      in
      if produced <> [] then incr matched
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "ran >= 1000 differential cases (got %d)" !cases)
    true (!cases >= 1000);
  (* Guard against a vacuous generator: a healthy fraction of cases
     must actually produce matches. *)
  Alcotest.(check bool)
    (Printf.sprintf "generator is not vacuous (%d/%d cases matched)" !matched
       !cases)
    true
    (!matched * 5 >= !cases)

(* Churn differential: the same equivalence must survive epoch
   boundaries — rules removed (an epoch retiring its program) and new
   ones registered (the next epoch cutting over) in interleaved rounds.
   Exercises the tombstone/compaction path of [remove] under the exact
   pattern Shell.cutover_epoch produces. *)
let churn_differential_cases () =
  let rng = Prng.create ~seed:313131 in
  let cases = ref 0 in
  let removed_total = ref 0 in
  for _program = 1 to 120 do
    let index, program = gen_program rng in
    let live = ref program in
    let next_id = ref (List.length program) in
    for _round = 1 to 4 do
      (* Retire a random subset of the live program... *)
      let keep, retire =
        List.partition (fun _ -> Prng.int rng 3 > 0) !live
      in
      List.iter
        (fun (id, tpl, site) ->
          let ok =
            Rule_index.remove index ~lhs:tpl ~site (fun (id', _) -> id' = id)
          in
          if not ok then
            Alcotest.failf "remove lost a live entry (#%d)" id;
          incr removed_total)
        retire;
      (* ...and cut over to a fresh batch. *)
      let fresh =
        List.init (Prng.int rng 6) (fun _ ->
            let id = !next_id in
            incr next_id;
            let tpl = gen_template rng in
            let site =
              if Prng.int rng 4 = 0 then None else Some (Prng.pick rng sites)
            in
            Rule_index.add index ~lhs:tpl ~site (id, tpl);
            (id, tpl, site))
      in
      live := keep @ fresh;
      Alcotest.(check int) "length tracks live entries"
        (List.length !live) (Rule_index.length index);
      for _event = 1 to 4 do
        let desc = gen_desc_from_program rng !live in
        let event_site = Prng.pick rng sites in
        let local_site =
          if Prng.bool rng then event_site else Prng.pick rng sites
        in
        incr cases;
        check_case ~case:!cases index desc ~local_site ~event_site
      done
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "ran >= 1000 churn cases (got %d)" !cases)
    true (!cases >= 1000);
  Alcotest.(check bool)
    (Printf.sprintf "churn actually removed entries (%d)" !removed_total)
    true
    (!removed_total >= 500)

(* Deterministic order-preservation scenario: several rules in the same
   discrimination bucket, interleaved with chaining and foreign-site
   rules, must come back in exact registration order. *)
let registration_order () =
  let index = Rule_index.create () in
  let tpl name args = Template.make name args in
  let x_tpl = tpl "Ev" [ Expr.Item ("X", []); Expr.Var "v" ] in
  let free_tpl = tpl "Ev" [ Expr.Var "a"; Expr.Var "v" ] in
  Rule_index.add index ~lhs:x_tpl ~site:(Some "s0") 0;
  Rule_index.add index ~lhs:free_tpl ~site:None 1;
  Rule_index.add index ~lhs:x_tpl ~site:(Some "s0") 2;
  Rule_index.add index ~lhs:x_tpl ~site:(Some "s1") 3;  (* foreign *)
  Rule_index.add index ~lhs:free_tpl ~site:(Some "s0") 4;
  Rule_index.add index ~lhs:x_tpl ~site:None 5;
  let desc =
    { Event.name = "Ev"; args = [ Event.Ai (Item.make "X"); Event.Av (Value.Int 1) ] }
  in
  let got = Rule_index.select index ~local_site:"s0" ~event_site:"s0" ~desc in
  Alcotest.(check (list int)) "same-bucket interleaving preserves order"
    [ 0; 1; 2; 4; 5 ] got;
  let naive = Rule_index.select_naive index ~local_site:"s0" ~event_site:"s0" in
  Alcotest.(check (list int)) "naive returns all site-eligible entries"
    [ 0; 1; 2; 4; 5 ] naive;
  (* At a foreign site only that site's bucket applies. *)
  let got_s1 = Rule_index.select index ~local_site:"s0" ~event_site:"s1" ~desc in
  Alcotest.(check (list int)) "foreign-site event selects only its bucket"
    [ 3 ] got_s1

let base_discrimination () =
  let index = Rule_index.create () in
  let item_tpl base = Template.make "Ev" [ Expr.Item (base, []); Expr.Var "v" ] in
  Rule_index.add index ~lhs:(item_tpl "X") ~site:(Some "s0") "x";
  Rule_index.add index ~lhs:(item_tpl "Y") ~site:(Some "s0") "y";
  Rule_index.add index
    ~lhs:(Template.make "Ev" [ Expr.Var "a"; Expr.Var "v" ])
    ~site:(Some "s0") "free";
  let desc base =
    { Event.name = "Ev"; args = [ Event.Ai (Item.make base); Event.Av (Value.Int 0) ] }
  in
  Alcotest.(check (list string)) "X event skips the Y bucket" [ "x"; "free" ]
    (Rule_index.select index ~local_site:"s0" ~event_site:"s0" ~desc:(desc "X"));
  Alcotest.(check (list string)) "Y event skips the X bucket" [ "y"; "free" ]
    (Rule_index.select index ~local_site:"s0" ~event_site:"s0" ~desc:(desc "Y"));
  let no_item = { Event.name = "Ev"; args = [ Event.Av (Value.Int 1) ] } in
  Alcotest.(check (list string))
    "itemless event consults only the base-free bucket" [ "free" ]
    (Rule_index.select index ~local_site:"s0" ~event_site:"s0" ~desc:no_item);
  let buckets, largest = Rule_index.bucket_stats index in
  Alcotest.(check int) "three discrimination buckets" 3 buckets;
  Alcotest.(check int) "singleton buckets" 1 largest;
  Alcotest.(check int) "length counts every registration" 3
    (Rule_index.length index)

(* E15's shape at its scale, which the random programs above never
   reach: 32 sites x 256 rules in one index, every LHS named Upd over a
   base of its own, and a stream of updates each followed by the
   site-free Done event its rule chains — a miss on both paths. *)
let e15_shape () =
  let sites = 32 and per_site = 256 in
  let site s = "s" ^ string_of_int s in
  let base s k = Printf.sprintf "X%d_%d" s k in
  let index = Rule_index.create () in
  for s = 0 to sites - 1 do
    for k = 0 to per_site - 1 do
      let tpl = Template.make "Upd" [ Expr.Item (base s k, []); Expr.Var "v" ] in
      Rule_index.add index ~lhs:tpl ~site:(Some (site s)) ((s * per_site) + k, tpl)
    done
  done;
  let updates = 1024 in
  let hits = ref 0 in
  for i = 0 to updates - 1 do
    let s = i mod sites and k = i / sites mod per_site in
    let at = site s in
    let upd =
      { Event.name = "Upd";
        args = [ Event.Ai (Item.make (base s k)); Event.Av (Value.Int i) ] }
    in
    let chained = { Event.name = "Done"; args = [ Event.Av (Value.Int i) ] } in
    List.iter
      (fun desc ->
        check_case ~case:i index desc ~local_site:at ~event_site:at;
        hits :=
          !hits
          + List.length
              (matches_of
                 (Rule_index.select index ~local_site:at ~event_site:at ~desc)
                 desc))
      [ upd; chained ]
  done;
  Alcotest.(check int) "each update hits its one rule, each Done misses" updates
    !hits

let () =
  Alcotest.run "rule_index"
    [
      ( "differential",
        [
          Alcotest.test_case "1500 random programs/events: indexed = naive"
            `Quick differential_cases;
          Alcotest.test_case
            "epoch churn (remove + re-add rounds): indexed = naive" `Quick
            churn_differential_cases;
          Alcotest.test_case "E15 shape, 32 sites x 256 rules: indexed = naive"
            `Quick e15_shape;
        ] );
      ( "discrimination",
        [
          Alcotest.test_case "registration order" `Quick registration_order;
          Alcotest.test_case "base buckets" `Quick base_discrimination;
        ] );
    ]
