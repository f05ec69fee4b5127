(* Measurement plumbing shared by every workload: the wall clock,
   quantiles, registry deltas, the in-memory span recorder of the
   traced run, and the result line. Nothing here reaches into the
   library's internals: counts come from the kernel's own metrics
   registry, its logical clock and the OCaml runtime. *)

open W5_os

(* ---- clock ---- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_of_ns ns = float_of_int ns /. 1e3
let s_of_ns ns = float_of_int ns /. 1e9

(* ---- statistics ---- *)

(* Nearest-rank quantile of an unsorted sample ([q] in [0, 1]). *)
let quantile values q =
  let n = Array.length values in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

let median values = quantile values 0.5

(* A growable float sample, so a run of unknown length keeps every
   latency without a list per observation. *)
module Sample = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let values t = Array.sub t.data 0 t.len
  let length t = t.len

  (* The [n] most recent values: one window's samples. *)
  let tail t n =
    let n = min n t.len in
    Array.sub t.data (t.len - n) n
end

(* ---- host speed ----

   The host is shared, and other tenants' traffic through its caches
   and memory slows whole seconds of a run by up to half. Before each
   window the benchmark times a fixed memory-bound loop — a sum over an
   8 MB array, which allocates nothing, so the program's heap cannot
   change it — and scales the window's times by [nominal / measured]:
   the end-to-end timings read as on a host where that loop takes
   [nominal_ns]. Raw figures are printed beside them. *)

let host_buf = lazy (Array.make (1 lsl 20) 1)

(* The loop's time on an uncontended core of the machine the bounds
   were set on (Intel Xeon, 2 vCPUs). *)
let nominal_ns = 1_200_000

let host_slowdown () =
  let a = Lazy.force host_buf in
  let t0 = now_ns () in
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    s := !s + Array.unsafe_get a i
  done;
  ignore (Sys.opaque_identity !s);
  float_of_int (now_ns () - t0) /. float_of_int nominal_ns

(* ---- counts from the kernel's metrics registry ---- *)

(* Every counter and gauge series summed per metric name; histogram
   families contribute their observation count. Label-cache gauges
   are process-global and republished on demand, so refresh them
   first. *)
let registry_totals kernels =
  let totals = Hashtbl.create 64 in
  List.iter
    (fun kernel ->
      Kernel.sync_cache_metrics kernel;
      List.iter
        (fun (s : W5_obs.Metrics.sample) ->
          let sum =
            List.fold_left
              (fun acc (_, point) ->
                match point with
                | W5_obs.Metrics.Value v -> acc + v
                | W5_obs.Metrics.Histo { count; _ } -> acc + count)
              0 s.W5_obs.Metrics.sample_series
          in
          let prev =
            Option.value ~default:0
              (Hashtbl.find_opt totals s.W5_obs.Metrics.sample_name)
          in
          Hashtbl.replace totals s.W5_obs.Metrics.sample_name (prev + sum))
        (W5_obs.Metrics.dump (Kernel.metrics kernel)))
    kernels;
  totals

(* Sum of one labelled series (e.g. exports with decision=deny). *)
let registry_series kernels name labels =
  List.fold_left
    (fun acc kernel ->
      List.fold_left
        (fun acc (s : W5_obs.Metrics.sample) ->
          if s.W5_obs.Metrics.sample_name <> name then acc
          else
            List.fold_left
              (fun acc (ls, point) ->
                match point with
                | W5_obs.Metrics.Value v
                  when List.for_all (fun l -> List.mem l ls) labels ->
                    acc + v
                | _ -> acc)
              acc s.W5_obs.Metrics.sample_series)
        acc
        (W5_obs.Metrics.dump (Kernel.metrics kernel)))
    0 kernels

(* The deterministic per-operation counts a probe records: the same
   seed on a fresh world gives the same numbers, bit for bit. *)
type counts = {
  ops : int;
  statuses : (string * int) list;  (** outcome class -> occurrences *)
  syscalls : int;
  flow_checks : int;
  ticks : int;
  audit_entries : int;
  gate_invocations : int;
  spawns : int;
  minor_words : int;
  export_denies : int;
  exports : int;
  rows_scanned : int;
  index_hits : int;
  index_fallbacks : int;
  cache_hits : int;
  cache_misses : int;
  quota_kills : int;
  extra : (string * int) list;  (** workload-specific counts *)
}

type snapshot = {
  totals : (string, int) Hashtbl.t;
  deny : int;
  tick : int;
}

let snapshot kernels =
  {
    totals = registry_totals kernels;
    deny = registry_series kernels "w5_exports_total" [ ("decision", "deny") ];
    tick = List.fold_left (fun acc k -> acc + Kernel.tick k) 0 kernels;
  }

let counts_between a b ~ops ~statuses ~minor_words ~extra =
  let d name =
    Option.value ~default:0 (Hashtbl.find_opt b.totals name)
    - Option.value ~default:0 (Hashtbl.find_opt a.totals name)
  in
  {
    ops;
    statuses;
    syscalls = d "w5_syscalls_total";
    flow_checks = d "w5_flow_checks_total";
    ticks = b.tick - a.tick;
    audit_entries = d "w5_audit_events_total";
    gate_invocations = d "w5_gate_invocations_total";
    spawns = d "w5_proc_spawns_total";
    minor_words;
    export_denies = b.deny - a.deny;
    exports = d "w5_exports_total";
    rows_scanned = d "w5_store_rows_scanned_total";
    index_hits = d "w5_store_index_hits_total";
    index_fallbacks = d "w5_store_index_fallbacks_total";
    cache_hits = d "w5_label_cache_hits_total";
    cache_misses = d "w5_label_cache_misses_total";
    quota_kills = d "w5_quota_kills_total";
    extra;
  }

let per_op c n = if c.ops = 0 then 0.0 else float_of_int n /. float_of_int c.ops

let ratio num den =
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

let render_counts c =
  let rate name n = Printf.sprintf "%s=%.3f" name (per_op c n) in
  String.concat " "
    ([
       Printf.sprintf "ops=%d" c.ops;
       rate "syscalls/op" c.syscalls;
       rate "flow_checks/op" c.flow_checks;
       rate "ticks/op" c.ticks;
       rate "audit_entries/op" c.audit_entries;
       rate "gate_invocations/op" c.gate_invocations;
       rate "spawns/op" c.spawns;
       rate "minor_words/op" c.minor_words;
       Printf.sprintf "exports=%d export_denies=%d" c.exports c.export_denies;
       Printf.sprintf "rows_scanned=%d index_hits=%d index_fallbacks=%d"
         c.rows_scanned c.index_hits c.index_fallbacks;
       Printf.sprintf "label_cache_hits=%d label_cache_misses=%d quota_kills=%d"
         c.cache_hits c.cache_misses c.quota_kills;
     ]
    @ List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) c.extra
    @ [
        "statuses="
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) c.statuses);
      ])

(* ---- spans of the traced run ----

   A span is entered and left around one call into a layer; spans
   nest, and each one records wall time and minor words. On leave,
   the span's totals are charged to its name as self time (duration
   minus the children's durations) — so self times of all spans add
   up to the time the roots cover. A bounded ring keeps the most
   recent raw spans for the trace file. *)

module Spans = struct
  type layer = {
    mutable self_ns : int;
    mutable self_words : float;
  }

  type frame = {
    f_id : int;
    f_name : string;
    f_parent : int;
    f_root : int;
    f_t0 : int;
    f_w0 : float;
    mutable f_child_ns : int;
    mutable f_child_words : float;
  }

  type raw = {
    r_id : int;
    r_parent : int;
    r_root : int;
    r_name : string;
    r_t0 : int;
    r_t1 : int;
    r_words : float;
  }

  type t = {
    layers : (string, layer) Hashtbl.t;
    mutable stack : frame list;
    mutable next_id : int;
    ring : raw option array;
    mutable ring_pos : int;
    mutable covered_ns : int;  (** wall time under root spans *)
  }

  let create () =
    {
      layers = Hashtbl.create 16;
      stack = [];
      next_id = 1;
      ring = Array.make 8192 None;
      ring_pos = 0;
      covered_ns = 0;
    }

  let enter t name =
    let parent, root =
      match t.stack with
      | [] -> (0, t.next_id)
      | f :: _ -> (f.f_id, f.f_root)
    in
    let frame =
      {
        f_id = t.next_id;
        f_name = name;
        f_parent = parent;
        f_root = root;
        f_t0 = now_ns ();
        f_w0 = Gc.minor_words ();
        f_child_ns = 0;
        f_child_words = 0.0;
      }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- frame :: t.stack

  let leave t =
    match t.stack with
    | [] -> invalid_arg "Spans.leave: no open span"
    | f :: rest ->
        let words = Gc.minor_words () -. f.f_w0 in
        let t1 = now_ns () in
        let dur = t1 - f.f_t0 in
        let layer =
          match Hashtbl.find_opt t.layers f.f_name with
          | Some l -> l
          | None ->
              let l = { self_ns = 0; self_words = 0.0 } in
              Hashtbl.replace t.layers f.f_name l;
              l
        in
        layer.self_ns <- layer.self_ns + dur - f.f_child_ns;
        layer.self_words <- layer.self_words +. words -. f.f_child_words;
        (match rest with
        | p :: _ ->
            p.f_child_ns <- p.f_child_ns + dur;
            p.f_child_words <- p.f_child_words +. words
        | [] -> t.covered_ns <- t.covered_ns + dur);
        t.stack <- rest;
        t.ring.(t.ring_pos) <-
          Some
            {
              r_id = f.f_id;
              r_parent = f.f_parent;
              r_root = f.f_root;
              r_name = f.f_name;
              r_t0 = f.f_t0;
              r_t1 = t1;
              r_words = words;
            };
        t.ring_pos <- (t.ring_pos + 1) mod Array.length t.ring

  let span t name f =
    enter t name;
    match f () with
    | v ->
        leave t;
        v
    | exception e ->
        leave t;
        raise e

  (* [f] in a span when tracing ([Some t]), bare otherwise. *)
  let opt t name f = match t with Some t -> span t name f | None -> f ()

  let self_ns t name =
    match Hashtbl.find_opt t.layers name with Some l -> l.self_ns | None -> 0

  let self_words t name =
    match Hashtbl.find_opt t.layers name with
    | Some l -> l.self_words
    | None -> 0.0

  (* One JSON object per line, oldest first. *)
  let write t path =
    let oc = open_out path in
    let n = Array.length t.ring in
    for i = 0 to n - 1 do
      match t.ring.((t.ring_pos + i) mod n) with
      | None -> ()
      | Some r ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"root\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%.0f}\n"
            r.r_id r.r_parent r.r_root r.r_name r.r_t0 r.r_t1 r.r_words
    done;
    close_out oc
end

(* ---- heap ---- *)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
  /. 1e6

(* ---- result line ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (json_number x.value) x.unit_)
          metrics))
