(* The W5 end-to-end benchmark.

     w5bench --workload browse|post|flash|sync --seed N --seconds S --trace 0|1

   Each run sets the workload's world up three times (setup_s is the
   median), runs a fixed-length probe on each fresh world — the
   deterministic per-operation counts, which must repeat exactly — and
   then measures on the last world for S seconds. --trace 0 prints the
   end-to-end metrics; --trace 1 alternates traced and untraced windows
   of the same run, prints the per-layer metrics and writes the
   recorded spans under .perfbench_out/. Outputs are checked
   throughout; the last line of standard output is the JSON result.
   README.md defines every metric. *)

open W5_workload
module H = Harness
module Sched = W5_os.Sched

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

(* Requests per closed-loop window, and the probe's fixed length. *)
let chunk = 250
let probe_ops = 2000
let setups = 3

(* flash: a burst of [burst] requests is due every [burst_interval_ms],
   an offered rate of 3333 req/s — about half of what one caller
   sustains in closed loop on the flash mix. *)
let burst = 250
let burst_interval_ms = 75.0

(* sync: rounds in the probe, and rounds per measured window. *)
let sync_probe_rounds = 10
let sync_window = 10

(* The end-to-end samples of an untraced run, window by window. Each
   window's times are scaled by the host reading taken just before it
   (Harness.host_slowdown). Throughput and the median are then read
   from the run's quieter windows — the 80th percentile of window
   throughputs and the 20th percentile of window medians — and p99
   over every request of the run, except on flash, where one slow
   burst delays every later one of the open loop: there it is the 20th
   percentile of the bursts' own p99s. *)
type e2e = {
  raw : H.Sample.t;  (** µs as measured *)
  lat : H.Sample.t;  (** µs, scaled to the nominal host *)
  rates : H.Sample.t;
  medians : H.Sample.t;
  p99s : H.Sample.t;
  slowdowns : H.Sample.t;
}

let e2e () =
  {
    raw = H.Sample.create ();
    lat = H.Sample.create ();
    rates = H.Sample.create ();
    medians = H.Sample.create ();
    p99s = H.Sample.create ();
    slowdowns = H.Sample.create ();
  }

(* Close a window of [ops] operations (default [n]) that took [ns] and
   whose [n] raw latencies are the last of [e.raw]. *)
let close_window ?ops e ~n ~ns ~slowdown =
  let window = Array.map (fun x -> x /. slowdown) (H.Sample.tail e.raw n) in
  let ops = Option.value ops ~default:n in
  Array.iter (H.Sample.add e.lat) window;
  H.Sample.add e.rates (float_of_int ops *. 1e9 /. float_of_int ns *. slowdown);
  H.Sample.add e.medians (H.median window);
  H.Sample.add e.p99s (H.quantile window 0.99);
  H.Sample.add e.slowdowns slowdown

type timings = {
  throughput : float;
  p50 : float;
  p99 : float;
  samples : int;
  windows : int;
  note : string;
}

let timings ?throughput ?(tail_per_window = false) e =
  let v = H.Sample.values in
  let lat = v e.lat and raw = v e.raw in
  {
    throughput = Option.value throughput ~default:(H.quantile (v e.rates) 0.8);
    p50 = H.quantile (v e.medians) 0.2;
    p99 =
      (if tail_per_window then H.quantile (v e.p99s) 0.2 else H.quantile lat 0.99);
    samples = Array.length lat;
    windows = H.Sample.length e.medians;
    note =
      Printf.sprintf
        "host slowdown: median %.3f, p10 %.3f, p90 %.3f; unscaled latency p50=%.1fus \
         p99=%.1fus"
        (H.median (v e.slowdowns)) (H.quantile (v e.slowdowns) 0.1)
        (H.quantile (v e.slowdowns) 0.9) (H.median raw) (H.quantile raw 0.99);
  }

(* Everything a workload reports, before it is split into the
   end-to-end and per-layer result sets. *)
type outcome = {
  setup_runs : float array;
  probes : H.counts list;  (** one per fresh world, oldest first *)
  attempted : int;
  failed : int;
  leaks : int;
  timings : timings;  (** untraced run only *)
  peak_heap_mb : float;
  layers : H.metric list;  (** traced run only *)
  through_gateway : bool;
  notes : string list;
}

let probe_metrics (c : H.counts) =
  let per n = H.per_op c n in
  [
    H.m "gateway.spawns_per_req" "count" (per c.spawns);
    H.m "perimeter.gate_invocations_per_req" "count" (per c.gate_invocations);
    H.m "perimeter.export_deny_share" "ratio" (H.ratio c.export_denies c.exports);
    H.m "kernel.syscalls_per_req" "count" (per c.syscalls);
    H.m "kernel.ticks_per_req" "count" (per c.ticks);
    H.m "kernel.audit_entries_per_req" "count" (per c.audit_entries);
    H.m "kernel.quota_kills" "count" (float_of_int c.quota_kills);
    H.m "difc.flow_checks_per_req" "count" (per c.flow_checks);
    H.m "difc.label_cache_hit_ratio" "ratio"
      (H.ratio c.cache_hits (c.cache_hits + c.cache_misses));
    H.m "store.rows_scanned_per_req" "count" (per c.rows_scanned);
    H.m "store.index_hit_ratio" "ratio"
      (H.ratio c.index_hits (c.index_hits + c.index_fallbacks));
    H.m "gc.minor_words_per_req" "words" (per c.minor_words);
  ]

let extra (c : H.counts) name =
  Option.value ~default:0 (List.assoc_opt name c.extra)

(* The traced windows of a --trace 1 run, against the untraced ones. *)
type traced = {
  sp : H.Spans.t;
  mutable wall_ns : int;  (** wall time of the traced windows *)
  mutable ops : int;
  traced_per_op : H.Sample.t;  (** ns per operation, traced windows *)
  plain_per_op : H.Sample.t;
}

let traced () =
  {
    sp = H.Spans.create ();
    wall_ns = 0;
    ops = 0;
    traced_per_op = H.Sample.create ();
    plain_per_op = H.Sample.create ();
  }

let account tr ~traced:is_traced ~start ~ops ~per_op =
  if is_traced then begin
    tr.wall_ns <- tr.wall_ns + (H.now_ns () - start);
    tr.ops <- tr.ops + ops;
    H.Sample.add tr.traced_per_op per_op
  end
  else H.Sample.add tr.plain_per_op per_op

(* Self time and allocation of each layer span, as shares of the
   traced wall time and per operation. *)
let layer_metrics tr layers =
  let ops = float_of_int (max 1 tr.ops) in
  List.concat_map
    (fun (prefix, span) ->
      let self = H.Spans.self_ns tr.sp span in
      [
        H.m (prefix ^ ".busy_share") "ratio" (H.ratio self tr.wall_ns);
        H.m (prefix ^ ".us_per_req") "us" (H.us_of_ns self /. ops);
        H.m (prefix ^ ".minor_words_per_req") "words"
          (H.Spans.self_words tr.sp span /. ops);
      ])
    layers

(* Validity of the measurement itself: the harness's own share, the
   cost of tracing, and how much of the traced wall time the spans
   account for. *)
let trace_metrics tr ~harness =
  [
    H.m "harness.busy_share" "ratio"
      (H.ratio
         (List.fold_left (fun acc n -> acc + H.Spans.self_ns tr.sp n) 0 harness)
         tr.wall_ns);
    H.m "trace.overhead_share" "ratio"
      (H.median (H.Sample.values tr.traced_per_op)
       /. H.median (H.Sample.values tr.plain_per_op)
      -. 1.0);
    H.m "trace.coverage_share" "ratio" (H.ratio tr.sp.H.Spans.covered_ns tr.wall_ns);
  ]

let write_trace args tr =
  let dir = ".perfbench_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  H.Spans.write tr.sp
    (Filename.concat dir
       (Printf.sprintf "spans-%s-seed%d.jsonl" args.workload args.seed))

(* Set a world up [setups] times; probe each fresh world. Only the last
   world survives; earlier ones are dropped before the next is built. *)
let prepare ~setup ~probe =
  let times = Array.make setups 0.0 in
  let probes = ref [] and last = ref None in
  for i = 0 to setups - 1 do
    last := None;
    Gc.full_major ();
    W5_difc.Memo.reset_all ();
    let t0 = H.now_ns () in
    let world = setup () in
    times.(i) <- H.s_of_ns (H.now_ns () - t0);
    let counts, state = probe world in
    probes := counts :: !probes;
    last := Some (world, state)
  done;
  match !last with
  | Some (world, state) -> (times, List.rev !probes, world, state)
  | None -> invalid_arg "prepare: no setup"

(* Heap and major collections over the measured phase; the host
   reading's buffer is allocated first, outside every window. *)
let start_memory () =
  ignore (H.host_slowdown ());
  Gc.compact ();
  (ref (H.heap_mb ()), (Gc.quick_stat ()).Gc.major_collections)

let majors_since m0 = float_of_int ((Gc.quick_stat ()).Gc.major_collections - m0)

(* ---- browse and post: closed loop ---- *)

let closed_loop args mix =
  let seed = args.seed in
  let dummy = W5_http.Response.ok "" in
  let probe w =
    let rng = Rng.create ~seed:(seed + 1) in
    let t = Web.tally () in
    let before = H.snapshot [ w.Web.kernel ] in
    let words = ref 0.0 in
    for _ = 1 to probe_ops / chunk do
      let specs = Array.init chunk (fun _ -> Web.gen w rng mix) in
      let responses = Array.make chunk dummy in
      ignore (Web.run_chunk w None specs responses ~lat:None ~words);
      Array.iteri (fun i s -> Web.check w t s responses.(i)) specs
    done;
    let after = H.snapshot [ w.Web.kernel ] in
    ( H.counts_between before after ~ops:probe_ops ~statuses:(Web.statuses t)
        ~minor_words:(int_of_float !words) ~extra:[],
      (rng, t) )
  in
  let times, probes, w, (rng, probe_tally) =
    prepare ~setup:(fun () -> Web.setup ~seed Web.default_size) ~probe
  in
  let t = Web.tally () in
  let e = e2e () in
  let tr = traced () in
  let peak, majors0 = start_memory () in
  let responses = Array.make chunk dummy in
  let words = ref 0.0 in
  let deadline = H.now_ns () + int_of_float (args.seconds *. 1e9) in
  let k = ref 0 in
  while H.now_ns () < deadline do
    let is_traced = args.trace && !k mod 2 = 0 in
    let sp = if is_traced then Some tr.sp else None in
    let start = H.now_ns () in
    let specs =
      H.Spans.opt sp "harness.gen" (fun () -> Array.init chunk (fun _ -> Web.gen w rng mix))
    in
    let slowdown = if args.trace then 1.0 else H.host_slowdown () in
    let ns =
      Web.run_chunk w
        sp specs responses
        ~lat:(if args.trace then None else Some e.raw)
        ~words
    in
    H.Spans.opt sp "harness.check" (fun () ->
        Array.iteri (fun i s -> Web.check w t s responses.(i)) specs);
    account tr ~traced:is_traced ~start ~ops:chunk
      ~per_op:(float_of_int ns /. float_of_int chunk);
    if not args.trace then close_window e ~n:chunk ~ns ~slowdown;
    peak := Float.max !peak (H.heap_mb ());
    incr k
  done;
  let majors = majors_since majors0 in
  let layers =
    if not args.trace then []
    else begin
      write_trace args tr;
      layer_metrics tr
        [
          ("gateway", "gateway.submit");
          ("kernel", "kernel.run");
          ("perimeter", "gateway.conclude");
        ]
      @ H.m "gc.major_collections" "count" majors
        :: trace_metrics tr ~harness:[ "request"; "harness.gen"; "harness.check" ]
    end
  in
  {
    setup_runs = times;
    probes;
    attempted = t.Web.attempted + probe_tally.Web.attempted;
    failed = t.Web.failed + probe_tally.Web.failed;
    leaks = t.Web.leaks + probe_tally.Web.leaks;
    timings = timings e;
    peak_heap_mb = !peak;
    layers;
    through_gateway = true;
    notes = [ "mix: " ^ Web.render_mix t ];
  }

(* ---- flash: open loop, bursts over scheduled admission ---- *)

let flash args =
  let seed = args.seed in
  let mix = Web.flash_mix in
  let dummy = W5_http.Response.ok "" in
  let setup () =
    let w = Web.setup ~seed Web.default_size in
    (w, Sched.create ~policy:(Sched.Seeded seed) w.Web.kernel)
  in
  let new_bursts () = { Web.peak_in_flight = 0; drain_ns = 0 } in
  let probe (w, sched) =
    let rng = Rng.create ~seed:(seed + 1) in
    let t = Web.tally () in
    let bs = new_bursts () in
    let before = H.snapshot [ w.Web.kernel ] and s0 = Sched.stats sched in
    let words = ref 0.0 in
    for _ = 1 to probe_ops / burst do
      let specs = Array.init burst (fun _ -> Web.gen w rng mix) in
      let responses = Array.make burst dummy in
      Web.run_burst w None sched bs specs responses ~due:0 ~lat:None ~words;
      Array.iteri (fun i s -> Web.check w t s responses.(i)) specs
    done;
    let after = H.snapshot [ w.Web.kernel ] and s1 = Sched.stats sched in
    ( H.counts_between before after ~ops:probe_ops ~statuses:(Web.statuses t)
        ~minor_words:(int_of_float !words)
        ~extra:
          [
            ("sched_slices", s1.Sched.slices - s0.Sched.slices);
            ("sched_preemptions", s1.Sched.preemptions - s0.Sched.preemptions);
          ],
      (rng, t) )
  in
  let times, probes, (w, sched), (rng, probe_tally) = prepare ~setup ~probe in
  let t = Web.tally () in
  let e = e2e () and lateness = H.Sample.create () in
  let bs = new_bursts () in
  let tr = traced () in
  let traced_bursts = ref 0 and traced_drain = ref 0 in
  let peak, majors0 = start_memory () in
  let words = ref 0.0 in
  let interval = int_of_float (burst_interval_ms *. 1e6) in
  let start = H.now_ns () + interval in
  let stop = start + int_of_float (args.seconds *. 1e9) in
  let completed = ref 0 and last_done = ref start in
  let responses = Array.make burst dummy in
  let k = ref 0 in
  while start + (!k * interval) < stop do
    let due = start + (!k * interval) in
    let is_traced = args.trace && !k mod 2 = 0 in
    let sp = if is_traced then Some tr.sp else None in
    let cycle_start = H.now_ns () in
    let specs =
      H.Spans.opt sp "harness.gen" (fun () -> Array.init burst (fun _ -> Web.gen w rng mix))
    in
    let slowdown = if args.trace then 1.0 else H.host_slowdown () in
    H.Spans.opt sp "loadgen.idle" (fun () ->
        let ahead = due - H.now_ns () in
        if ahead > 0 then Unix.sleepf (float_of_int ahead /. 1e9));
    let began = H.now_ns () in
    H.Sample.add lateness (H.us_of_ns (began - due));
    let drain_before = bs.Web.drain_ns in
    H.Spans.opt sp "burst" (fun () ->
        Web.run_burst w
          sp sched bs specs responses ~due
          ~lat:(if args.trace then None else Some e.raw)
          ~words);
    let finished = H.now_ns () in
    completed := !completed + burst;
    last_done := finished;
    if not args.trace then close_window e ~n:burst ~ns:(finished - began) ~slowdown;
    H.Spans.opt sp "harness.check" (fun () ->
        Array.iteri (fun i s -> Web.check w t s responses.(i)) specs);
    account tr ~traced:is_traced ~start:cycle_start ~ops:burst
      ~per_op:(float_of_int (finished - began) /. float_of_int burst);
    if is_traced then begin
      incr traced_bursts;
      traced_drain := !traced_drain + (bs.Web.drain_ns - drain_before)
    end;
    peak := Float.max !peak (H.heap_mb ());
    incr k
  done;
  let majors = majors_since majors0 in
  let stats = Sched.stats sched in
  let lateness = H.Sample.values lateness in
  let layers =
    if not args.trace then []
    else begin
      write_trace args tr;
      layer_metrics tr [ ("gateway", "gateway.submit"); ("perimeter", "gateway.conclude") ]
      @ [
          H.m "sched.busy_share" "ratio"
            (H.ratio (H.Spans.self_ns tr.sp "sched.drain") tr.wall_ns);
          H.m "sched.drain_ms_per_burst" "ms"
            (float_of_int !traced_drain /. 1e6 /. float_of_int (max 1 !traced_bursts));
          H.m "sched.max_runq" "count" (float_of_int stats.Sched.max_depth);
          H.m "sched.peak_in_flight" "count" (float_of_int bs.Web.peak_in_flight);
          H.m "gc.major_collections" "count" majors;
          H.m "loadgen.lateness_p99_us" "us" (H.quantile lateness 0.99);
        ]
      @ trace_metrics tr ~harness:[ "burst"; "harness.gen"; "harness.check" ]
    end
  in
  {
    setup_runs = times;
    probes;
    attempted = t.Web.attempted + probe_tally.Web.attempted;
    failed = t.Web.failed + probe_tally.Web.failed;
    leaks = t.Web.leaks + probe_tally.Web.leaks;
    timings =
      timings ~tail_per_window:true e
        ~throughput:(float_of_int !completed /. H.s_of_ns (!last_done - start));
    peak_heap_mb = !peak;
    layers;
    through_gateway = true;
    notes =
      [
        "mix: " ^ Web.render_mix t;
        Printf.sprintf
          "offered: %.0f req/s, %d requests every %.0f ms; %d bursts; generator \
           lateness p50=%.1fus p99=%.1fus max=%.1fus"
          (float_of_int burst /. (burst_interval_ms /. 1e3))
          burst burst_interval_ms !k (H.median lateness) (H.quantile lateness 0.99)
          (H.quantile lateness 1.0);
      ];
  }

(* ---- sync: two providers, linked users ---- *)

let sync args =
  let seed = args.seed in
  let probe w =
    let rng = Rng.create ~seed:(seed + 1) in
    let t = Fed.tally () in
    let before = H.snapshot (Fed.kernels w) in
    let w0 = Gc.minor_words () in
    for r = 1 to sync_probe_rounds do
      ignore (Fed.round w rng None t ~round:r)
    done;
    let words = Gc.minor_words () -. w0 in
    let after = H.snapshot (Fed.kernels w) in
    ( H.counts_between before after ~ops:t.Fed.link_rounds
        ~statuses:[ ("ok", t.Fed.link_rounds - t.Fed.errors); ("error", t.Fed.errors) ]
        ~minor_words:(int_of_float words)
        ~extra:
          [
            ("moved", t.Fed.moved); ("merged", t.Fed.merged);
            ("examined", t.Fed.examined); ("reaped", t.Fed.reaped);
          ],
      (rng, t) )
  in
  let times, probes, w, (rng, probe_tally) =
    prepare ~setup:(fun () -> Fed.setup ~seed Fed.default_size) ~probe
  in
  let t = Fed.tally () in
  let e = e2e () in
  let tr = traced () in
  let peak, majors0 = start_memory () in
  let links = Array.length w.Fed.links in
  let deadline = H.now_ns () + int_of_float (args.seconds *. 1e9) in
  (* spent ns and host reading of each round of the open window *)
  let window = ref [] in
  let k = ref 0 in
  while H.now_ns () < deadline do
    let round = sync_probe_rounds + !k + 1 in
    let is_traced = args.trace && !k mod 2 = 0 in
    let slowdown = if args.trace then 1.0 else H.host_slowdown () in
    let start = H.now_ns () in
    let spent =
      if is_traced then
        H.Spans.span tr.sp "round" (fun () -> Fed.round w rng (Some tr.sp) t ~round)
      else Fed.round w rng None t ~round
    in
    account tr ~traced:is_traced ~start ~ops:links
      ~per_op:(float_of_int spent /. float_of_int links);
    if not args.trace then begin
      H.Sample.add e.raw (H.us_of_ns spent);
      window := (spent, slowdown) :: !window;
      if List.length !window = sync_window then begin
        let ns = List.fold_left (fun acc (s, _) -> acc + s) 0 !window in
        let slowdown =
          List.fold_left (fun acc (_, f) -> acc +. f) 0.0 !window
          /. float_of_int sync_window
        in
        close_window e ~n:sync_window ~ops:(sync_window * links) ~ns ~slowdown;
        window := []
      end
    end;
    peak := Float.max !peak (H.heap_mb ());
    incr k
  done;
  let majors = majors_since majors0 in
  let unconverged = Fed.unconverged w in
  let probe = List.nth probes (List.length probes - 1) in
  let records_per_s = float_of_int t.Fed.moved /. H.s_of_ns t.Fed.sync_ns in
  let layers =
    if not args.trace then []
    else begin
      write_trace args tr;
      let ops = float_of_int (max 1 tr.ops) in
      [
        H.m "federation.busy_share" "ratio"
          (H.ratio (H.Spans.self_ns tr.sp "federation.sync") tr.wall_ns);
        H.m "federation.us_per_link_round" "us"
          (H.us_of_ns (H.Spans.self_ns tr.sp "federation.sync") /. ops);
        H.m "federation.minor_words_per_link_round" "words"
          (H.Spans.self_words tr.sp "federation.sync" /. ops);
        H.m "federation.moved_share" "ratio"
          (H.ratio (extra probe "moved") (extra probe "examined"));
        H.m "federation.merged_per_round" "count"
          (float_of_int (extra probe "merged") /. float_of_int sync_probe_rounds);
        H.m "federation.records_synced_per_s" "1/s" records_per_s;
        H.m "gc.major_collections" "count" majors;
      ]
      @ trace_metrics tr ~harness:[ "round"; "edits" ]
    end
  in
  {
    setup_runs = times;
    probes;
    attempted = t.Fed.link_rounds + probe_tally.Fed.link_rounds;
    failed = t.Fed.errors + probe_tally.Fed.errors + unconverged;
    leaks = 0;
    timings = timings e;
    peak_heap_mb = !peak;
    layers;
    through_gateway = false;
    notes =
      [
        Printf.sprintf
          "links=%d rounds=%d edits/round=%d moved=%d merged=%d examined=%d \
           unconverged_after_last_round=%d records_synced_per_s=%.1f"
          links !k Fed.default_size.Fed.edits_per_round t.Fed.moved t.Fed.merged
          t.Fed.examined unconverged records_per_s;
      ];
  }

(* ---- reporting ---- *)

(* Every per-layer metric, in a fixed order; a layer the workload does
   not exercise reads 0. *)
let per_layer_names =
  [
    ("gateway.busy_share", "ratio"); ("gateway.us_per_req", "us");
    ("gateway.minor_words_per_req", "words"); ("gateway.spawns_per_req", "count");
    ("perimeter.busy_share", "ratio"); ("perimeter.us_per_req", "us");
    ("perimeter.minor_words_per_req", "words");
    ("perimeter.gate_invocations_per_req", "count");
    ("perimeter.export_deny_share", "ratio");
    ("kernel.busy_share", "ratio"); ("kernel.us_per_req", "us");
    ("kernel.minor_words_per_req", "words"); ("kernel.syscalls_per_req", "count");
    ("kernel.ticks_per_req", "count"); ("kernel.audit_entries_per_req", "count");
    ("kernel.quota_kills", "count"); ("kernel.reaped_by_harness_per_req", "count");
    ("difc.flow_checks_per_req", "count"); ("difc.label_cache_hit_ratio", "ratio");
    ("store.rows_scanned_per_req", "count"); ("store.index_hit_ratio", "ratio");
    ("sched.busy_share", "ratio"); ("sched.drain_ms_per_burst", "ms");
    ("sched.slices_per_req", "count"); ("sched.preemptions_per_req", "count");
    ("sched.max_runq", "count"); ("sched.peak_in_flight", "count");
    ("federation.busy_share", "ratio"); ("federation.us_per_link_round", "us");
    ("federation.minor_words_per_link_round", "words");
    ("federation.moved_share", "ratio"); ("federation.merged_per_round", "count");
    ("federation.records_synced_per_s", "1/s");
    ("gc.minor_words_per_req", "words"); ("gc.major_collections", "count");
    ("harness.busy_share", "ratio"); ("loadgen.lateness_p99_us", "us");
    ("trace.overhead_share", "ratio"); ("trace.coverage_share", "ratio");
  ]

let per_layer (o : outcome) =
  let probe = List.nth o.probes (List.length o.probes - 1) in
  (* Kernel-wide counts are charged to the gateway and perimeter only
     on workloads that go through them; sync spawns its own
     processes. *)
  let from_probe =
    List.filter
      (fun (x : H.metric) ->
        o.through_gateway
        || not
             (String.starts_with ~prefix:"gateway." x.H.name
             || String.starts_with ~prefix:"perimeter." x.H.name))
      (probe_metrics probe)
    @ [
        H.m "sched.slices_per_req" "count" (H.per_op probe (extra probe "sched_slices"));
        H.m "sched.preemptions_per_req" "count"
          (H.per_op probe (extra probe "sched_preemptions"));
        H.m "kernel.reaped_by_harness_per_req" "count"
          (H.per_op probe (extra probe "reaped"));
      ]
  in
  let known = o.layers @ from_probe in
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : H.metric) -> x.H.name = name) known with
      | Some x -> x
      | None -> H.m name unit_ 0.0)
    per_layer_names

let end_to_end (o : outcome) =
  [
    H.m "setup_s" "s" (H.median o.setup_runs);
    H.m "throughput_rps" "1/s" o.timings.throughput;
    H.m "latency_p50_us" "us" o.timings.p50;
    H.m "latency_p99_us" "us" o.timings.p99;
    H.m "ok_share" "ratio" (1.0 -. H.ratio o.failed (max 1 o.attempted));
    H.m "peak_heap_mb" "MB" o.peak_heap_mb;
  ]

let usage = "w5bench --workload browse|post|flash|sync --seed N --seconds S --trace 0|1"

let parse () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME browse, post, flash or sync");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

let () =
  let args = parse () in
  let run =
    match args.workload with
    | "browse" -> fun () -> closed_loop args Web.browse_mix
    | "post" -> fun () -> closed_loop args Web.post_mix
    | "flash" -> fun () -> flash args
    | "sync" -> fun () -> sync args
    | other ->
        prerr_endline ("unknown workload: " ^ other ^ "\n" ^ usage);
        exit 2
  in
  let o = run () in
  (* The first world also pays for process-wide tables growing to
     size, which shows in its allocation count; every later fresh
     world must repeat the same counts exactly. *)
  let deterministic =
    match o.probes with
    | _ :: p :: rest -> List.for_all (fun q -> q = p) rest
    | _ -> false
  in
  Printf.printf "workload=%s seed=%d seconds=%g trace=%d\n" args.workload args.seed
    args.seconds (Bool.to_int args.trace);
  Printf.printf "setup_s: %s (median of %d)\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") o.setup_runs)))
    setups;
  List.iteri
    (fun i c -> Printf.printf "counts[world %d]: %s\n" (i + 1) (H.render_counts c))
    o.probes;
  Printf.printf "counts deterministic across fresh worlds: %b\n" deterministic;
  List.iter print_endline o.notes;
  let tm = o.timings in
  if tm.samples > 0 then print_endline tm.note;
  if tm.samples > 0 then
    Printf.printf
      "latency samples: %d in %d windows (p50 from the window medians, p99 with %d \
       beyond)\n"
      tm.samples tm.windows
      (tm.samples - int_of_float (Float.ceil (0.99 *. float_of_int tm.samples)));
  Printf.printf "attempted=%d failed=%d canary_leaks=%d\n" o.attempted o.failed o.leaks;
  let metrics = if args.trace then per_layer o else end_to_end o in
  List.iter
    (fun (x : H.metric) -> Printf.printf "%-40s %14.4f %s\n" x.H.name x.H.value x.H.unit_)
    metrics;
  let coverage_ok =
    (not args.trace)
    ||
    match List.find_opt (fun (x : H.metric) -> x.H.name = "trace.coverage_share") metrics with
    | Some x -> Float.abs (x.H.value -. 1.0) <= 0.1
    | None -> false
  in
  let correct = o.failed = 0 && o.leaks = 0 && deterministic && coverage_ok in
  print_endline (H.result_line ~correct ~attempted:o.attempted ~failed:o.failed metrics);
  exit (if correct then 0 else 1)
