(* Benchmark-side spans: a span is one timed call into a layer's public
   function, made from the benchmark's own code.  Spans carry name,
   start, end, parent, op id and a call count (a replay batch is one
   span covering [calls] calls).  They stay in per-domain buffers
   (sharded shells run inside fabric worker domains) and are
   aggregated or written out once the traced round is over.

   Words are minor-heap words ([Gc.minor_words], which does not
   allocate); blocks allocated directly in the major heap (over 256
   words) are not counted here — the end-to-end metric counts them. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type buf = {
  tid : int;
  mutable n : int;
  mutable cur : int;  (* innermost open span of this domain, -1 if none *)
  mutable name : string array;
  mutable parent : int array;
  mutable op : int array;
  mutable calls : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable w0 : float array;
  mutable w1 : float array;
  mutable child_ns : float array;
  mutable child_w : float array;
}

let capacity = 1024

let make_buf tid =
  {
    tid;
    n = 0;
    cur = -1;
    name = Array.make capacity "";
    parent = Array.make capacity (-1);
    op = Array.make capacity (-1);
    calls = Array.make capacity 0;
    t0 = Array.make capacity 0.0;
    t1 = Array.make capacity 0.0;
    w0 = Array.make capacity 0.0;
    w1 = Array.make capacity 0.0;
    child_ns = Array.make capacity 0.0;
    child_w = Array.make capacity 0.0;
  }

let bufs = ref []
let bufs_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock bufs_mu;
      let b = make_buf (List.length !bufs) in
      bufs := b :: !bufs;
      Mutex.unlock bufs_mu;
      b)

let grow b =
  let len = Array.length b.t0 in
  let ext a fill = Array.append a (Array.make len fill) in
  b.name <- ext b.name "";
  b.parent <- ext b.parent (-1);
  b.op <- ext b.op (-1);
  b.calls <- ext b.calls 0;
  b.t0 <- ext b.t0 0.0;
  b.t1 <- ext b.t1 0.0;
  b.w0 <- ext b.w0 0.0;
  b.w1 <- ext b.w1 0.0;
  b.child_ns <- ext b.child_ns 0.0;
  b.child_w <- ext b.child_w 0.0

let enter ?(op = -1) ?(calls = 1) name =
  let b = Domain.DLS.get key in
  if b.n = Array.length b.t0 then grow b;
  let i = b.n in
  b.n <- i + 1;
  b.name.(i) <- name;
  b.parent.(i) <- b.cur;
  b.op.(i) <- op;
  b.calls.(i) <- calls;
  b.child_ns.(i) <- 0.0;
  b.child_w.(i) <- 0.0;
  b.cur <- i;
  b.w0.(i) <- Gc.minor_words ();
  b.t0.(i) <- now_ns ();
  i

let leave i =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let b = Domain.DLS.get key in
  b.t1.(i) <- t1;
  b.w1.(i) <- w1;
  let p = b.parent.(i) in
  b.cur <- p;
  if p >= 0 then begin
    b.child_ns.(p) <- b.child_ns.(p) +. (t1 -. b.t0.(i));
    b.child_w.(p) <- b.child_w.(p) +. (w1 -. b.w0.(i))
  end

let span ?op ?calls name f =
  let i = enter ?op ?calls name in
  match f () with
  | v ->
    leave i;
    v
  | exception e ->
    leave i;
    raise e

let origin = ref 0.0

let reset () =
  Mutex.lock bufs_mu;
  List.iter
    (fun b ->
      b.n <- 0;
      b.cur <- -1)
    !bufs;
  Mutex.unlock bufs_mu;
  origin := now_ns ()

(* Per-name aggregate: self time is the span's duration minus the part
   its child spans cover; self words likewise. *)
type row = {
  mutable calls : int;
  mutable spans : int;
  mutable incl_ns : float;
  mutable self_ns : float;
  mutable self_words : float;
}

let rows () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        let r =
          match Hashtbl.find_opt tbl b.name.(i) with
          | Some r -> r
          | None ->
            let r = { calls = 0; spans = 0; incl_ns = 0.0; self_ns = 0.0; self_words = 0.0 } in
            Hashtbl.add tbl b.name.(i) r;
            r
        in
        let d = b.t1.(i) -. b.t0.(i) in
        r.calls <- r.calls + b.calls.(i);
        r.spans <- r.spans + 1;
        r.incl_ns <- r.incl_ns +. d;
        r.self_ns <- r.self_ns +. (d -. b.child_ns.(i));
        r.self_words <- r.self_words +. (b.w1.(i) -. b.w0.(i) -. b.child_w.(i))
      done)
    !bufs;
  tbl

(* Chrome trace-event JSON ("X" complete events, microsecond
   timestamps), loadable by chrome://tracing or Perfetto. *)
let write_chrome path =
  let oc = open_out_bin path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        if not !first then output_char oc ',';
        first := false;
        Printf.fprintf oc
          "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"calls\":%d,\"words\":%.0f}}"
          b.name.(i) b.tid
          ((b.t0.(i) -. !origin) /. 1000.0)
          ((b.t1.(i) -. b.t0.(i)) /. 1000.0)
          i b.parent.(i) b.op.(i) b.calls.(i)
          (b.w1.(i) -. b.w0.(i))
      done)
    (List.rev !bufs);
  output_string oc "\n]}\n";
  close_out oc
