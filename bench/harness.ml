(* The one timer and the one world of the wall-clock experiments (E9,
   E15, E16, E18, E19, E20). *)

open Cm_rule
module Sim = Cm_sim.Sim
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell

type sample = { seconds : float; words : float }

(* Monotonic wall time and words allocated by [f ()].  Minor + major −
   promoted, so a word that survives a minor collection counts once.
   The minor count is [Gc.minor_words]: the one [Gc.counters] returns
   misses most of the current minor heap on OCaml 5.1, which swamps any
   measurement smaller than a few minor heaps. *)
let measure f =
  let _, pr0, ma0 = Gc.counters () in
  let mi0 = Gc.minor_words () in
  let t0 = Monotonic_clock.now () in
  let v = f () in
  let t1 = Monotonic_clock.now () in
  let mi1 = Gc.minor_words () in
  let _, pr1, ma1 = Gc.counters () in
  ( v,
    { seconds = Int64.(to_float (sub t1 t0)) *. 1e-9;
      words = mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0) } )

type spread = { median : float; lo : float; hi : float }

let spread xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  { median = a.(n / 2); lo = a.(0); hi = a.(n - 1) }

(* [show "%.0f" s] is "median (lo-hi)". *)
let show fmt s =
  let f x = Printf.sprintf fmt x in
  Printf.sprintf "%s (%s-%s)" (f s.median) (f s.lo) (f s.hi)

type 'a result = {
  values : 'a list;  (* one per timed round, in round order *)
  rates : float list;  (* operations per second, per round *)
  rate : spread;
  words_per_op : float;  (* median over rounds *)
}

(* [rounds ~n ~ops variants]: one untimed warm-up run of every variant,
   then [n] rounds that run every variant once each, alternating the
   order, each after a full collection; the result is each variant's
   median rate with min/max, and its words per operation.  A variant
   builds its world untimed, wraps the part to time in {!measure}, and
   returns what the caller checks; [ops v] is the operation count of a
   run that returned [v].  The second run of a round inherits the
   first one's heap and cache footprint; alternating keeps that
   position tax off one side of every comparison.  The full collection
   keeps the previous run's garbage (a whole world and its trace) off
   the next run's clock, and the warm-up absorbs the page faults and
   lazy initialisation of a process's first simulation. *)
let rounds ~n ~ops variants =
  let variants = Array.of_list variants in
  let k = Array.length variants in
  let run i = Gc.compact (); variants.(i) () in
  for i = 0 to k - 1 do ignore (run i) done;
  let runs = Array.make k [] in
  for round = 0 to n - 1 do
    for j = 0 to k - 1 do
      let i = if round mod 2 = 0 then j else k - 1 - j in
      runs.(i) <- run i :: runs.(i)
    done
  done;
  Array.to_list runs
  |> List.map (fun rs ->
         let rs = List.rev rs in
         let per_op x v = x /. float_of_int (max 1 (ops v)) in
         let rates = List.map (fun (v, s) -> 1.0 /. per_op s.seconds v) rs in
         { values = List.map fst rs; rates; rate = spread rates;
           words_per_op = (spread (List.map (fun (v, s) -> per_op s.words v) rs)).median })

let pair ~n ~ops a b =
  match rounds ~n ~ops [ a; b ] with [ x; y ] -> (x, y) | _ -> assert false

(* [a] relative to [b]: the ratio of the median rates, with the range of
   the per-round ratios.  A per-round ratio compounds the noise of both
   its runs, so the medians give the steadier estimate; the ratio of
   medians always lies within the per-round range. *)
let ratio a b =
  { (spread (List.map2 ( /. ) a.rates b.rates)) with median = a.rate.median /. b.rate.median }

(* The E15 grid: site s<s> owns items X<s>_<k> (and any other base of
   the form <letter><s>_<rest>); item-free descriptors fall back to s0. *)
module Grid = struct
  let site_of s = "s" ^ string_of_int s
  let index_of_site site = int_of_string (String.sub site 1 (String.length site - 1))
  let base_of s k = Printf.sprintf "X%d_%d" s k

  let locator item =
    let base = item.Item.base in
    match String.index_opt base '_' with
    | Some i -> "s" ^ String.sub base 1 (i - 1)
    | None -> site_of 0

  (* One rule per (site, constraint), site-major. *)
  let program ~sites ~constraints rule =
    List.concat (List.init sites (fun s -> List.init constraints (rule s)))

  (* [name](X<s>_<k>, v) -> Done(v): one single-entry bucket per rule,
     and a chained site-free Done that matches nothing. *)
  let chain_rules ~name ~sites ~constraints =
    let done_step =
      { Rule.guard = Expr.Const (Value.Bool true);
        template = Template.make "Done" [ Expr.Var "v" ] }
    in
    program ~sites ~constraints (fun s k ->
        Rule.make
          ~id:(Printf.sprintf "r%d_%d" s k)
          ~lhs:(Template.make name [ Expr.Item (base_of s k, []); Expr.Var "v" ])
          (Rule.Steps [ done_step ]))

  type t = {
    system : Sys_.t;
    shells : Shell.t array;
    programs : Rule.t list array;  (* what each shell was given *)
    emitters : Cm_core.Cmi.emit array;
  }

  (* One shell per site, and the rules installed through the system's
     placement (§4.1): each shell holds the rules it fires or executes,
     in program order. *)
  let create ~seed ~sites rules =
    let system = Sys_.create ~config:(Sys_.Config.seeded seed) locator in
    let shells = Array.init sites (fun s -> Sys_.add_shell system ~site:(site_of s)) in
    Sys_.install system
      { Cm_core.Strategy.strategy_name = "grid"; description = "grid"; rules; aux_init = [] };
    let programs = Array.map (Sys_.place system rules) shells in
    let emitters = Array.init sites (fun s -> Shell.emitter_for shells.(s) ~site:(site_of s)) in
    { system; shells; programs; emitters }

  let emit g s desc = ignore (g.emitters.(s) desc ~kind:Event.Spontaneous)

  (* Update [i] goes to site [i mod sites], constraint
     [i / sites mod constraints]: [inject ~s ~k i] emits it.  A
     self-rescheduling driver, not [events] pre-queued closures, so the
     sim heap stays shallow and dispatch dominates the cost.  Returns
     the horizon to run to. *)
  let drive g ~constraints ~events ~rate inject =
    let sim = Sys_.sim g.system in
    let sites = Array.length g.shells in
    let interval = 1.0 /. rate in
    let i = ref 0 in
    let rec step () =
      if !i < events then begin
        let n = !i in
        incr i;
        inject ~s:(n mod sites) ~k:(n / sites mod constraints) n;
        Sim.schedule sim ~delay:interval step
      end
    in
    Sim.schedule_at sim 0.0 step;
    (float_of_int events *. interval) +. 100.0

  (* The usual update: [name](X<s>_<k>, i). *)
  let update name ~s ~k i =
    { Event.name; args = [ Event.Ai (Item.make (base_of s k)); Event.Av (Value.Int i) ] }
end
