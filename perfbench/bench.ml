(* pchls benchmark: four workloads, end-to-end and per-layer metrics.

   bench.exe --workload W --seed N --seconds S --trace 0|1 [--pchls EXE]

   W is synth-capped, synth-uncapped, serve-mix, serve-renumbered or all.
   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics (end-to-end metrics with
   --trace 0, per-layer metrics with --trace 1). See README.md. *)

open Pchls_dfg
module Library = Pchls_fulib.Library
module Module_spec = Pchls_fulib.Module_spec
module Schedule = Pchls_sched.Schedule
module Pasap = Pchls_sched.Pasap
module Palap = Pchls_sched.Palap
module Engine = Pchls_core.Engine
module Design = Pchls_core.Design
module Explore = Pchls_core.Explore
module Preflight = Pchls_preflight.Preflight
module Analysis = Pchls_analysis.Analysis
module Http = Pchls_serve.Http
module Json = Pchls_obs.Json
module Metrics = Pchls_obs.Metrics
module Trace = Pchls_obs.Trace
module Event = Pchls_obs.Event
module Profile = Pchls_power.Profile

let library = Library.default
let now = Unix.gettimeofday

(* --- statistics ----------------------------------------------------------- *)

let sorted xs = List.sort Float.compare xs

let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

(* Per-call time of [f] in seconds: the median of [batches] batches, each
   repeating [f] until it has run for at least 2 ms. *)
let per_call ?(batches = 7) f =
  let reps =
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    let once = Float.max 1e-7 (now () -. t0) in
    max 1 (int_of_float (0.002 /. once))
  in
  median
    (List.init batches (fun _ ->
         let t0 = now () in
         for _ = 1 to reps do
           ignore (Sys.opaque_identity (f ()))
         done;
         (now () -. t0) /. float_of_int reps))

let median_call_ms fs =
  if fs = [] then 0. else median (List.map (fun f -> 1e3 *. per_call f) fs)

(* --- results --------------------------------------------------------------- *)

type result = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float) list;  (* name, value; units are in BENCHMARK.json *)
  notes : string list;  (* run-level check failures *)
}

let vm_hwm_mb () = Client.peak_rss_mb (Unix.getpid ())

(* Counters and histogram sums/counts, as (name, value); deltas of two
   snapshots give one phase's work. *)
let counters () =
  List.concat_map
    (fun (name, v) ->
      match v with
      | Metrics.Counter n -> [ (name, float_of_int n) ]
      | Metrics.Histogram h ->
        [ (name ^ ".sum", h.Metrics.sum); (name ^ ".count", float_of_int h.Metrics.count) ]
      | Metrics.Gauge _ -> [])
    (Metrics.snapshot ())

let delta before after name =
  let get l = Option.value (List.assoc_opt name l) ~default:0. in
  get after -. get before

(* --- span self times ------------------------------------------------------- *)

(* Sums, per span name, the self time (duration minus the direct children's
   durations) and total duration, plus the layer splits the README defines:
   pasap spans nested in a palap span count for palap. *)
type spans = {
  self : (string, float) Hashtbl.t;  (* seconds *)
  mutable pasap_s : float;  (* pasap.run not inside palap.run *)
  mutable palap_s : float;  (* palap.run, nested pasap included *)
  mutable engine_other_s : float;  (* engine.run minus its pasap/palap *)
}

let span_stats (events : Event.t list) =
  let st =
    { self = Hashtbl.create 16; pasap_s = 0.; palap_s = 0.; engine_other_s = 0. }
  in
  let add name v =
    Hashtbl.replace st.self name
      (v +. Option.value (Hashtbl.find_opt st.self name) ~default:0.)
  in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (ev : Event.t) ->
      match ev.Event.phase with
      | Event.Complete _ ->
        Hashtbl.replace by_tid ev.Event.tid
          (ev :: Option.value (Hashtbl.find_opt by_tid ev.Event.tid) ~default:[])
      | Event.Instant -> ())
    events;
  Hashtbl.iter
    (fun _ evs ->
      (* stack of (event, end, children duration) — parents precede children *)
      let stack = ref [] in
      let dur (ev : Event.t) =
        match ev.Event.phase with
        | Event.Complete { dur_ns } -> Int64.to_float dur_ns /. 1e9
        | Event.Instant -> 0.
      in
      let engine_sched = Hashtbl.create 4 in
      let close (ev, _, children) =
        add ev.Event.name (dur ev -. children);
        if ev.Event.name = "engine.run" then begin
          let sched =
            Option.value (Hashtbl.find_opt engine_sched ev.Event.ts_ns) ~default:0.
          in
          st.engine_other_s <- st.engine_other_s +. (dur ev -. sched)
        end
      in
      let rec pop_until ts =
        match !stack with
        | ((_, e, _) as top) :: rest when Int64.compare e ts <= 0 ->
          stack := rest;
          close top;
          pop_until ts
        | _ -> ()
      in
      List.iter
        (fun (ev : Event.t) ->
          pop_until ev.Event.ts_ns;
          (match !stack with
          | (p, e, c) :: rest -> stack := (p, e, c +. dur ev) :: rest
          | [] -> ());
          let inside name =
            List.exists (fun ((p : Event.t), _, _) -> p.Event.name = name) !stack
          in
          let credit_engine d =
            match
              List.find_opt (fun ((p : Event.t), _, _) -> p.Event.name = "engine.run") !stack
            with
            | Some (p, _, _) ->
              Hashtbl.replace engine_sched p.Event.ts_ns
                (d +. Option.value (Hashtbl.find_opt engine_sched p.Event.ts_ns) ~default:0.)
            | None -> ()
          in
          (match ev.Event.name with
          | "palap.run" ->
            st.palap_s <- st.palap_s +. dur ev;
            credit_engine (dur ev)
          | "pasap.run" when not (inside "palap.run") ->
            st.pasap_s <- st.pasap_s +. dur ev;
            credit_engine (dur ev)
          | _ -> ());
          stack := (ev, Event.end_ns ev, 0.) :: !stack)
        (Event.sort evs);
      List.iter close !stack)
    by_tid;
  st

let self_of st name = Option.value (Hashtbl.find_opt st.self name) ~default:0.

let self_prefix st prefix =
  Hashtbl.fold
    (fun name v acc -> if String.starts_with ~prefix name then acc +. v else acc)
    st.self 0.

(* --- inputs shared by every workload ------------------------------------- *)

let min_power_info g id =
  match Library.min_power library (Graph.kind g id) with
  | Some m -> { Schedule.latency = m.Module_spec.latency; power = m.Module_spec.power }
  | None -> invalid_arg "no module for kind"

(* The element of median node count: the "median graph" of a workload. *)
let median_by_size graph xs =
  let by_size =
    List.sort (fun a b -> compare (Graph.node_count (graph a)) (Graph.node_count (graph b))) xs
  in
  List.nth by_size (List.length by_size / 2)

let shuffle ~seed xs =
  let rng = Random.State.make [| 0x5EED; seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The answer of a served or in-process design, as the checker reads it. *)
let check_design_of (d : Design.t) =
  {
    Check.instances =
      List.map
        (fun (i : Design.instance) -> (i.Design.spec.Module_spec.name, i.Design.ops))
        (Design.instances d);
    makespan = Design.makespan d;
    peak = Profile.peak (Design.profile d);
    fu_area = (Design.area d).Design.fu;
  }

let assemble_of graph ~time_limit ~power_limit instances =
  Design.assemble ~cost_model:Pchls_core.Cost_model.default ~graph ~time_limit
    ~power_limit
    ~instances:
      (List.map (fun (name, ops) -> (Library.find_exn library name, ops)) instances)

(* --- synth workloads ------------------------------------------------------ *)

(* The band: Generator.sized graphs of a few hundred operations (I/O nodes
   on top), at the scaling bench's horizon 2*cp + nodes/4. The graphs are
   fixed; the seed sets the order they are synthesized in. *)
let band = [ (11, 120); (12, 160); (13, 200); (14, 240); (15, 280) ]
let capped_power = 40.

type job = { graph : Graph.t; horizon : int; power : float }

let build_band ~seed ~power =
  let jobs =
    List.map
      (fun (gseed, max_nodes) ->
        let g = Generator.sized ~seed:gseed ~max_nodes ~io:true () in
        (* serialise and re-read: the form a client would submit *)
        let text = Text_format.to_string g in
        let g =
          match Text_format.of_string text with
          | Ok g -> g
          | Error msg -> failwith msg
        in
        let latency id = (min_power_info g id).Schedule.latency in
        let cp = Graph.critical_path g ~latency in
        ({ graph = g; horizon = (cp * 2) + (Graph.node_count g / 4); power }, text))
      band
  in
  shuffle ~seed jobs

type answer = { area : float option; ok : (unit, string) Stdlib.result }

(* The independent checks of one synthesis. *)
let check_synth job = function
  | Engine.Synthesized (d, _) ->
    let time_limit = job.horizon and power_limit = job.power and g = job.graph in
    let ok =
      if Check.provably_infeasible g ~time_limit ~power_limit then
        Error "a design at a provably infeasible point"
      else Check.design ~graph:g ~time_limit ~power_limit (check_design_of d)
    in
    { area = Some (Design.area d).Design.total; ok }
  | Engine.Infeasible { reason } ->
    let ok =
      if Check.serial_fits job.graph ~time_limit:job.horizon ~power_limit:job.power then
        Error ("infeasible where a serial schedule fits: " ^ reason)
      else Check.reason ~graph:job.graph reason
    in
    { area = None; ok }

type round = {
  wall : float;
  lats : float list;
  area_total : float;
  fails : int;
  work : (string * float) list;  (* counter deltas *)
  spans : spans option;
  designs : (job * Design.t) list;
}

(* One round: the call `pchls synth` makes on every job of the band, timed
   alone; the answers are checked after the clock stops. *)
let synth_round ~traced jobs =
  let before = counters () in
  let sink = if traced then Some (Trace.make ()) else None in
  Option.iter Trace.install sink;
  let t0 = now () in
  let outs =
    List.map
      (fun job ->
        let t = now () in
        let out =
          Engine.run ~library ~time_limit:job.horizon ~power_limit:job.power job.graph
        in
        (job, out, now () -. t))
      jobs
  in
  let wall = now () -. t0 in
  Option.iter (fun _ -> Trace.uninstall ()) sink;
  let after = counters () in
  let answers = List.map (fun (job, out, _) -> check_synth job out) outs in
  {
    wall;
    lats = List.map (fun (_, _, l) -> l) outs;
    area_total =
      List.fold_left (fun acc a -> acc +. Option.value a.area ~default:0.) 0. answers;
    fails = List.length (List.filter (fun a -> Result.is_error a.ok) answers);
    work = List.map (fun (n, _) -> (n, delta before after n)) after;
    spans = Option.map (fun s -> span_stats (Trace.events s)) sink;
    designs =
      List.filter_map
        (function job, Engine.Synthesized (d, _), _ -> Some (job, d) | _ -> None)
        outs;
  }

(* Runs whole rounds until [seconds] have passed (at least one). *)
let rounds ~seconds f =
  let t0 = now () in
  let rec go acc =
    if acc <> [] && now () -. t0 >= seconds then List.rev acc else go (f () :: acc)
  in
  go []

(* Set-up is timed several times over a run, not only before it: this
   host's speed drifts over seconds, so samples taken back to back all see
   the same moment. [timed f] runs and times one set-up; [setup_s ()] is
   the median of the samples so far. *)
let setup_clock () =
  let samples = ref [] in
  let timed f =
    let t = now () in
    let r = f () in
    samples := (now () -. t) :: !samples;
    r
  in
  (timed, fun () -> median !samples)

let work_of (r : round) name = Option.value (List.assoc_opt name r.work) ~default:0.

(* VmHWM never falls, so after an earlier synth workload in the same
   process (--workload all) it would show that workload's peak. *)
let synth_ran = ref false

let synth_workload ~power ~seed ~seconds ~trace =
  let timed_setup, setup_s = setup_clock () in
  let build () = timed_setup (fun () -> build_band ~seed ~power) in
  let jobs = build () in
  let rebuild () = for _ = 1 to 3 do ignore (build ()) done in
  rebuild ();
  let texts = List.map snd jobs and jobs = List.map fst jobs in
  let timed_s = if trace then seconds /. 2. else seconds in
  (* VmHWM after the first round: the same work in every run, whatever the
     number of rounds that fit *)
  let peak_rss = ref nan and first_synth = not !synth_ran in
  synth_ran := true;
  let untraced =
    rounds ~seconds:timed_s (fun () ->
        let r = synth_round ~traced:false jobs in
        if first_synth && Float.is_nan !peak_rss then peak_rss := vm_hwm_mb ();
        (* more set-up samples, between rounds and off the clock *)
        rebuild ();
        r)
  in
  let traced =
    if trace then rounds ~seconds:timed_s (fun () -> synth_round ~traced:true jobs) else []
  in
  let all = untraced @ traced in
  let first = List.hd all in
  let notes =
    List.concat_map
      (fun r ->
        (if r.area_total <> first.area_total then [ "area_total differs between rounds" ] else [])
        @ List.filter_map
            (fun name ->
              if work_of r name <> work_of first name then
                Some (name ^ " differs between rounds")
              else None)
            [ "pasap.runs"; "pasap.offset_delays"; "clique.gain_evaluated"; "engine.iterations" ])
      all
  in
  let attempted = List.length jobs * List.length all in
  let failed = List.fold_left (fun acc r -> acc + r.fails) 0 all in
  let wall rs = median (List.map (fun r -> r.wall) rs) in
  let e2e =
    [
      ("setup_s", setup_s ());
      ("wall_s", wall untraced);
      ("p50_ms", 1e3 *. median (List.concat_map (fun r -> r.lats) untraced));
      ("p90_ms", 1e3 *. quantile 0.9 (List.concat_map (fun r -> r.lats) untraced));
      ("area_total", first.area_total);
      ("peak_rss_mb", !peak_rss);
    ]
  in
  let layers () =
    let w name = work_of first name in
    let per_round f = median (List.map f traced) in
    let sp f = per_round (fun r -> match r.spans with Some s -> f s | None -> 0.) in
    let mid = median_by_size (fun j -> j.graph) jobs in
    let info = min_power_info mid.graph in
    let pasap () = Pasap.run mid.graph ~info ~horizon:mid.horizon ~power_limit:mid.power () in
    let palap () = Palap.run mid.graph ~info ~horizon:mid.horizon ~power_limit:mid.power () in
    [
      ("pasap.calls", w "pasap.runs");
      ("palap.calls", w "palap.runs");
      ("pasap.offset_delays", w "pasap.offset_delays");
      ("pasap.self_s", sp (fun s -> s.pasap_s));
      ("palap.self_s", sp (fun s -> s.palap_s));
      ("pasap.call_ms", median_call_ms [ pasap ]);
      ("palap.call_ms", median_call_ms [ palap ]);
      ("engine.iterations", w "engine.iterations");
      ("engine.backtracks", w "engine.backtracks");
      ("engine.other_s", sp (fun s -> s.engine_other_s));
      ("engine.run.self_s", sp (fun s -> self_of s "engine.run"));
      ("engine.iterate.self_s", sp (fun s -> self_of s "engine.iterate"));
      ("clique.gain_evaluated", w "clique.gain_evaluated");
      ( "assemble.call_ms",
        median_call_ms
          (List.map
             (fun (job, d) () ->
               assemble_of job.graph ~time_limit:job.horizon ~power_limit:job.power
                 (check_design_of d).Check.instances)
             first.designs));
      ("explore.points", w "explore.points");
      ("explore.point.self_s", sp (fun s -> self_of s "explore.point"));
      ( "preflight.call_ms",
        median_call_ms
          (List.map
             (fun j () ->
               Preflight.analyze ~library ~time_limit:j.horizon ~power_limit:j.power j.graph)
             jobs));
      ( "fingerprint.call_ms",
        median_call_ms (List.map (fun j () -> Explore.fingerprint ~library j.graph) jobs));
      ("dfg.parse_ms", median_call_ms (List.map (fun t () -> Text_format.of_string t) texts));
      ("trace.overhead_s", wall traced -. wall untraced);
    ]
  in
  {
    attempted;
    failed;
    correct = notes = [] && failed = 0;
    metrics = (if trace then layers () else e2e);
    notes;
  }

(* --- serve workloads ------------------------------------------------------ *)

type item = {
  label : string;
  graph : Graph.t;
  field : string;  (* the request's graph source, as a JSON member *)
  text : string option;  (* dfg text, when sent as dfg *)
}

type point = { t : int; p : float }
type kind = Synth | Sweep | Preflight_ep | Check_ep

type req = {
  kind : kind;
  item : item;
  pt : point;
  grid : int list * float list;  (* Sweep only *)
  body : string;
  origin : Graph.t option;  (* a renumbered twin: the graph under its first numbering *)
}

let path_of = function
  | Synth -> "/synth"
  | Sweep -> "/sweep"
  | Preflight_ep -> "/preflight"
  | Check_ep -> "/check"

let jstr s = Json.to_string (Json.String s)
let jnum f = Printf.sprintf "%.17g" f

let item_of_text ~label g =
  let text = Text_format.to_string g in
  let g = match Text_format.of_string text with Ok g -> g | Error m -> failwith m in
  { label; graph = g; field = "\"dfg\":" ^ jstr text; text = Some text }

(* Landmarks from Table 1: a fully serial min-power schedule fits at [f];
   [i_t] is below the fastest-module critical path and [i_p] below the
   cheapest module of some operation, so both are provably infeasible; [b]
   lies in between. *)
let landmarks g =
  let cp = Check.fastest_critical_path g in
  let serial = Check.serial_length g and pmin = Check.max_min_power g in
  let f = { t = serial; p = pmin } in
  let b = { t = cp + ((serial - cp) / 3); p = 4. *. pmin } in
  let i_t = { t = max 1 (cp - 1); p = 100. } in
  let i_p = { t = serial; p = pmin /. 2. } in
  (* sweep grids straddle the boundary on values the single points never
     use, so a cached prune never answers a /synth *)
  let grid = ([ max 1 (cp - 2); b.t + 1; serial + 1 ], [ 0.4 *. pmin; b.p +. 0.5; pmin +. 1. ]) in
  (f, b, i_t, i_p, grid)

let make_req ?origin kind item pt grid =
  let body =
    match kind with
    | Sweep ->
      let times, powers = grid in
      Printf.sprintf "{%s,\"times\":[%s],\"powers\":[%s],\"preflight\":true}" item.field
        (String.concat "," (List.map string_of_int times))
        (String.concat "," (List.map jnum powers))
    | Synth | Preflight_ep | Check_ep ->
      Printf.sprintf "{%s,\"time\":%d,\"power\":%s}" item.field pt.t (jnum pt.p)
  in
  { kind; item; pt; grid; body; origin }

(* serve-mix corpus: the bundled benchmarks by name, then generated
   mid-size DFGs sent as dfg text. Popularity rank follows this order. *)
let generated = [ (101, 40); (102, 50); (103, 60); (104, 70); (105, 80); (106, 90) ]

let mix_corpus () =
  List.map
    (fun (name, g) -> { label = name; graph = g; field = "\"benchmark\":" ^ jstr name; text = None })
    Benchmarks.all
  @ List.map
      (fun (s, n) ->
        item_of_text ~label:(Printf.sprintf "gen%d" s)
          (Generator.sized ~seed:s ~max_nodes:n ~io:true ()))
      generated

let zipf_s = 1.0
let mix_round_size = 160

(* Zipf shares by largest remainder, at least one request per item. *)
let zipf_counts n total =
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let sum = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> x /. sum *. float_of_int total) w in
  let counts = Array.map (fun x -> max 1 (truncate x)) exact in
  let short = total - Array.fold_left ( + ) 0 counts in
  let remainder r = exact.(r) -. Float.of_int (truncate exact.(r)) in
  let order = List.sort (fun a b -> Float.compare (remainder b) (remainder a)) (List.init n Fun.id) in
  List.iteri (fun k r -> if k < short then counts.(r) <- counts.(r) + 1) order;
  counts

(* Endpoint shares: /synth 10, /preflight 4, /sweep 3, /check 3 of 20. *)
let pattern =
  [| Synth; Preflight_ep; Synth; Sweep; Synth; Check_ep; Synth; Preflight_ep; Synth; Sweep;
     Synth; Check_ep; Synth; Preflight_ep; Synth; Sweep; Synth; Check_ep; Synth; Preflight_ep |]

let mix_round ~seed corpus =
  let counts = zipf_counts (List.length corpus) mix_round_size in
  let reqs =
    List.concat
      (List.mapi
         (fun i item ->
           let f, b, i_t, i_p, grid = landmarks item.graph in
           let synth_pts = [| f; b; i_t; i_p |] and check_pts = [| f; b |] in
           let used = Hashtbl.create 4 in
           List.init counts.(i) (fun j ->
               let kind = pattern.((j + (7 * i)) mod Array.length pattern) in
               let n = Option.value (Hashtbl.find_opt used kind) ~default:0 in
               Hashtbl.replace used kind (n + 1);
               let pt =
                 match kind with
                 | Check_ep -> check_pts.(n mod 2)
                 | Synth | Preflight_ep | Sweep -> synth_pts.(n mod 4)
               in
               make_req kind item pt grid))
         corpus)
  in
  shuffle ~seed reqs

(* serve-renumbered: each bundled benchmark at its four single points,
   under its own numbering and under a fixed id rotation (the twin). *)
let renumbered_keys () =
  List.concat_map
    (fun (name, g) ->
      let orig = item_of_text ~label:name g in
      let twin = item_of_text ~label:(name ^ "~") (Check.rotate g) in
      let f, b, i_t, i_p, grid = landmarks g in
      List.map
        (fun pt -> (make_req Synth orig pt grid, make_req ~origin:orig.graph Synth twin pt grid))
        [ f; b; i_t; i_p ])
    Benchmarks.all

(* Each key's twin, then its original; the seed orders the keys. *)
let renumbered_round ~seed keys =
  List.concat_map (fun (o, t) -> [ t; o ]) (shuffle ~seed keys)

(* --- driving the daemon ---------------------------------------------------- *)

type op = { req : req; status : int; resp : string; lat : float }

let run_requests ~port ~conns ~prefix reqs =
  let reqs = Array.of_list reqs in
  let out = Array.make (Array.length reqs) None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length reqs then begin
        let r = reqs.(i) in
        let bytes =
          Client.request_bytes ~meth:"POST" ~path:(path_of r.kind)
            ~id:(Printf.sprintf "%s-%d" prefix i) r.body
        in
        let t0 = now () in
        let resp =
          try Client.exchange ~port bytes
          with Unix.Unix_error (e, _, _) -> { Client.status = 0; body = Unix.error_message e }
        in
        let lat = now () -. t0 in
        out.(i) <- Some { req = r; status = resp.Client.status; resp = resp.Client.body; lat };
        loop ()
      end
    in
    loop ()
  in
  let t0 = now () in
  if conns = 1 then worker ()
  else List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  let wall = now () -. t0 in
  (wall, Array.to_list (Array.map Option.get out))

let metrics_of_daemon port =
  match Json.parse (Client.get ~port "/metrics").Client.body with
  | Ok (Json.Obj fields) ->
    List.concat_map
      (fun (name, v) ->
        match v with
        | Json.Number n -> [ (name, n) ]
        | Json.Obj _ ->
          let f k = match Json.member k v with Some (Json.Number n) -> n | _ -> 0. in
          [ (name ^ ".sum", f "sum"); (name ^ ".count", f "count") ]
        | _ -> [])
      fields
  | _ -> failwith "GET /metrics: not a JSON object"

let trace_of_daemon port =
  match Event.of_chrome (Client.get ~port "/trace").Client.body with
  | Ok evs -> evs
  | Error m -> failwith ("GET /trace: " ^ m)

(* (request_id, dur_ms, queue_ms) of the access log's records. *)
let access_records path =
  List.filter_map
    (fun line ->
      match Json.parse line with
      | Ok j -> (
        match (Json.member "request_id" j, Json.member "dur_ms" j) with
        | Some (Json.String id), Some (Json.Number d) ->
          let q = match Json.member "queue_ms" j with Some (Json.Number q) -> q | _ -> 0. in
          Some (id, d, q)
        | _ -> None)
      | Error _ -> None)
    (String.split_on_char '\n' (Client.read_file path))

(* --- checking served answers ---------------------------------------------- *)

let num j k = match Json.member k j with Some (Json.Number n) -> n | _ -> failwith ("no number " ^ k)
let str j k = match Json.member k j with Some (Json.String s) -> s | _ -> failwith ("no string " ^ k)
let list j k = match Json.member k j with Some (Json.List l) -> l | _ -> failwith ("no list " ^ k)

let served_design j =
  let pair = function
    | Json.List [ Json.Number o; Json.Number s ] -> (truncate o, truncate s)
    | _ -> failwith "malformed op binding"
  in
  {
    Check.instances =
      List.map (fun inst -> (str inst "module", List.map pair (list inst "ops"))) (list j "instances");
    makespan = truncate (num j "makespan");
    peak = num j "peak";
    fu_area =
      (match Json.member "area_breakdown" j with
      | Some b -> num b "fu"
      | None -> failwith "no area_breakdown");
  }

(* What the distinct answers of a run establish, across endpoints. *)
type ledger = {
  designs : (string * int * float, unit) Hashtbl.t;  (* points with a valid design *)
  pruned : (string * int * float, unit) Hashtbl.t;  (* points preflight pruned *)
  mutable area_total : float;
}

let new_ledger () =
  { designs = Hashtbl.create 64; pruned = Hashtbl.create 64; area_total = 0. }

let ( let* ) = Result.bind

(* The independent checks of one answer. *)
let judge ledger (o : op) =
  let g = o.req.item.graph in
  let at t p = (o.req.item.label, t, p) in
  let infeasible ~t ~p reason =
    if Check.serial_fits g ~time_limit:t ~power_limit:p then
      Error ("infeasible where a serial min-power schedule fits: " ^ reason)
    else Check.reason ~graph:g reason
  in
  let feasible ~t ~p area =
    if Check.provably_infeasible g ~time_limit:t ~power_limit:p then
      Error "a design at a provably infeasible point"
    else begin
      Hashtbl.replace ledger.designs (at t p) ();
      ledger.area_total <- ledger.area_total +. area;
      Ok ()
    end
  in
  let { t; p } = o.req.pt in
  let j = match Json.parse o.resp with Ok j -> j | Error m -> failwith m in
  match (o.req.kind, o.status) with
  | Synth, 200 ->
    let* () = Check.design ~graph:g ~time_limit:t ~power_limit:p (served_design j) in
    feasible ~t ~p (num j "area")
  | (Synth | Check_ep), 422 when Json.member "reason" j <> None -> infeasible ~t ~p (str j "reason")
  | Check_ep, 200 ->
    if num j "errors" = 0. then begin
      Hashtbl.replace ledger.designs (at t p) ();
      Ok ()
    end
    else Error ("/check reports " ^ str j "summary")
  | Preflight_ep, (200 | 422) ->
    let flagged = Json.member "infeasible" j = Some (Json.Bool true) in
    if flagged && Check.serial_fits g ~time_limit:t ~power_limit:p then
      Error "preflight prunes a point where a serial schedule fits"
    else if (not flagged) && Check.provably_infeasible g ~time_limit:t ~power_limit:p then
      Error "preflight misses a provably infeasible point"
    else begin
      if flagged then Hashtbl.replace ledger.pruned (at t p) ();
      Ok ()
    end
  | Sweep, 200 ->
    List.fold_left
      (fun acc pt ->
        let* () = acc in
        let t = truncate (num pt "time") and p = num pt "power" in
        match str pt "status" with
        | "feasible" ->
          if num pt "peak" > p +. 1e-9 then Error "sweep point over its power cap"
          else feasible ~t ~p (num pt "area")
        | "infeasible" -> infeasible ~t ~p (str pt "reason")
        | "pruned" ->
          Hashtbl.replace ledger.pruned (at t p) ();
          infeasible ~t ~p (str pt "reason")
        | s -> Error ("sweep point " ^ s))
      (Ok ()) (list j "points")
  | _, status ->
    Error (Printf.sprintf "%s answered HTTP %d: %s" (path_of o.req.kind) status o.resp)

let same_float a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let expect what served cold =
  if served = cold then Ok () else Error (Printf.sprintf "%s: served %s, cold run %s" what served cold)

(* The answer a cold, single-domain, in-process run gives for the same
   request. *)
let cold_matches (o : op) =
  let g = o.req.item.graph and { t; p } = o.req.pt in
  let j = match Json.parse o.resp with Ok j -> j | Error m -> failwith m in
  let infeasible reason =
    let* () = expect "status" (string_of_int o.status) "422" in
    expect "reason" (str j "reason") reason
  in
  match o.req.kind with
  | Synth -> (
    match Explore.solve ~library g ~time_limit:t ~power_limit:p with
    | Explore.Feasible { area; peak; design } ->
      let* () = expect "status" (string_of_int o.status) "200" in
      let served = served_design j in
      if not (same_float (num j "area") area && same_float served.Check.peak peak) then
        Error "area or peak differ from the cold run"
      else if served.Check.instances <> (check_design_of design).Check.instances then
        Error "design differs from the cold run"
      else Ok ()
    | Explore.Infeasible r | Explore.Pruned r -> infeasible r
    | Explore.Failed m -> Error ("cold run failed: " ^ m))
  | Check_ep -> (
    match Explore.solve ~library g ~time_limit:t ~power_limit:p with
    | Explore.Feasible { design; _ } ->
      let ds = Analysis.run_all ~library design in
      expect "summary" (str j "summary") (Analysis.summary ds)
    | Explore.Infeasible r | Explore.Pruned r -> infeasible r
    | Explore.Failed m -> Error ("cold run failed: " ^ m))
  | Preflight_ep ->
    let r = Preflight.analyze ~library ~time_limit:t ~power_limit:p g in
    expect "infeasible"
      (string_of_bool (Json.member "infeasible" j = Some (Json.Bool true)))
      (string_of_bool (Preflight.infeasible r))
  | Sweep ->
    let times, powers = o.req.grid in
    let cold = Explore.sweep ~preflight:true ~library g ~times ~powers in
    let served = list j "points" in
    if List.length served <> List.length cold then Error "sweep sizes differ"
    else
      List.fold_left2
        (fun acc s (c : Explore.point) ->
          let* () = acc in
          match c.Explore.result with
          | Explore.Feasible { area; peak; _ } ->
            let* () = expect "sweep status" (str s "status") "feasible" in
            if same_float (num s "area") area && same_float (num s "peak") peak then Ok ()
            else Error "sweep area or peak differ from the cold run"
          | Explore.Infeasible r ->
            let* () = expect "sweep status" (str s "status") "infeasible" in
            expect "sweep reason" (str s "reason") r
          | Explore.Pruned r ->
            let* () = expect "sweep status" (str s "status") "pruned" in
            expect "sweep reason" (str s "reason") r
          | Explore.Failed m -> Error ("cold sweep point failed: " ^ m))
        (Ok ()) served cold

let normalized resp =
  Str.global_replace (Str.regexp_string ",\"coalesced\":true") ",\"coalesced\":false" resp

(* The renumbering fault: a twin answered with the reason its original
   numbering gets, which cites the original's node ids. *)
let borrowed (o : op) =
  match (o.req.origin, Json.parse o.resp) with
  | Some orig, Ok j when o.status = 422 -> (
    match
      ( Json.member "reason" j,
        Explore.solve ~library orig ~time_limit:o.req.pt.t ~power_limit:o.req.pt.p )
    with
    | Some (Json.String served), (Explore.Infeasible r | Explore.Pruned r) ->
      served = r && Result.is_error (Check.reason ~graph:o.req.item.graph served)
    | _ -> false)
  | _ -> false

type verdict = Pass | Renumbered of string | Wrong of string

(* Verdicts per distinct (request, answer), shared by every op that got it. *)
let judge_all ledger =
  let memo = Hashtbl.create 256 in
  fun (o : op) ->
    let key = String.concat "\n" [ o.req.body; string_of_int o.status; normalized o.resp ] in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v =
        match
          let* () = judge ledger o in
          cold_matches o
        with
        | Ok () -> Pass
        | Error m -> if borrowed o then Renumbered m else Wrong m
        | exception (Failure m | Invalid_argument m) -> Wrong m
      in
      Hashtbl.add memo key v;
      v

(* --- serve workloads ---------------------------------------------------------- *)

type phase = {
  walls : float list;
  rounds : op list list;
  snaps : (string * float) list list;  (* /metrics at round boundaries *)
  events : Event.t list;  (* spans of the timed phase, traced daemon only *)
}

let serve_workload ~exe ~dir ~mix ~seed ~seconds ~trace =
  let jobs = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let conns = if mix then 2 else 1 in
  let inputs () =
    if mix then (mix_round ~seed (mix_corpus ()), [])
    else
      let keys = renumbered_keys () in
      (renumbered_round ~seed keys, List.map fst keys)
  in
  (* set-up: inputs, daemon start until /healthz answers, warm-up pass *)
  let timed_setup, setup_s = setup_clock () in
  let setup ~name ~traced () =
    timed_setup (fun () ->
        let round, originals = inputs () in
        let d = Client.start ~exe ~dir ~name ~jobs ~trace:traced in
        ignore
          (run_requests ~port:d.Client.port ~conns ~prefix:"w" (if mix then round else originals));
        (d, round))
  in
  (* two more set-up samples, on a second daemon that is stopped again: a
     third and two thirds of the way through the timed phase, or after it
     when it is shorter than that *)
  let extra = ref (if trace then [] else [ 1. /. 3.; 2. /. 3. ]) in
  let sample_setup () =
    extra := List.tl !extra;
    Client.stop (fst (setup ~name:"setup" ~traced:false ()))
  in
  let between frac = match !extra with at :: _ when frac >= at -> sample_setup () | _ -> () in
  let timed ~traced ~seconds (d, round) =
    let port = d.Client.port in
    let snap () = metrics_of_daemon port in
    let cutoff =
      if traced then
        List.fold_left (fun acc ev -> max acc (Event.end_ns ev)) 0L (trace_of_daemon port)
      else 0L
    in
    let t0 = now () in
    let rec go k walls ops snaps =
      if walls <> [] && now () -. t0 >= seconds then
        (List.rev walls, List.rev ops, List.rev snaps)
      else
        let wall, o = run_requests ~port ~conns ~prefix:(Printf.sprintf "t%d" k) round in
        let snaps = snap () :: snaps in
        if not traced then between ((now () -. t0) /. seconds);
        go (k + 1) (wall :: walls) (o :: ops) snaps
    in
    let walls, rounds, snaps = go 0 [] [] [ snap () ] in
    let events =
      if traced then
        List.filter (fun ev -> Int64.compare ev.Event.ts_ns cutoff > 0) (trace_of_daemon port)
      else []
    in
    { walls; rounds; snaps; events }
  in
  let ((d, round) as live) = setup ~name:"daemon" ~traced:false () in
  let phase_s = if trace then seconds /. 2. else seconds in
  let plain = timed ~traced:false ~seconds:phase_s live in
  let peak_rss = Client.peak_rss_mb d.Client.pid in
  Client.stop d;
  while !extra <> [] do
    sample_setup ()
  done;
  let access = access_records d.Client.access_log in
  let traced =
    if trace then begin
      let ((d, _) as live) = setup ~name:"traced" ~traced:true () in
      let ph = timed ~traced:true ~seconds:phase_s live in
      Client.stop d;
      Some ph
    end
    else None
  in
  (* untimed: check every distinct answer, independently and against a cold run *)
  let ledger = new_ledger () in
  let phases = plain :: Option.to_list traced in
  let all_ops = List.concat (List.concat_map (fun ph -> ph.rounds) phases) in
  let verdict = judge_all ledger in
  let verdicts = List.map (fun o -> (o, verdict o)) all_ops in
  let failures = List.filter (fun (_, v) -> v <> Pass) verdicts in
  let wrong = List.filter (function _, Wrong _ -> true | _ -> false) failures in
  let renumbered = List.length failures - List.length wrong in
  List.iteri
    (fun i ((o : op), v) ->
      match v with
      | (Wrong m | Renumbered m) when i < 3 ->
        Printf.eprintf "failed %s %s: %s\n%!" (path_of o.req.kind) o.req.item.label m
      | _ -> ())
    (if wrong = [] then failures else wrong);
  Printf.eprintf "failed: %d by the renumbering fault, %d otherwise, of %d\n%!" renumbered
    (List.length wrong) (List.length all_ops);
  let fails_per_round =
    List.sort_uniq compare
      (List.concat_map
         (fun ph ->
           List.map (fun r -> List.length (List.filter (fun o -> verdict o <> Pass) r)) ph.rounds)
         phases)
  in
  let notes =
    Hashtbl.fold
      (fun k () acc ->
        if Hashtbl.mem ledger.designs k then
          let l, t, p = k in
          Printf.sprintf "%s at T=%d P=%g is pruned yet has a design" l t p :: acc
        else acc)
      ledger.pruned []
    @ (if wrong = [] then []
       else [ Printf.sprintf "%d answers failed their checks" (List.length wrong) ])
    @ (if mix && renumbered > 0 then [ "serve-mix answers show the renumbering fault" ] else [])
    @ (match fails_per_round with
      | [ _ ] -> []
      | _ -> [ "the number of failed answers differs between rounds" ])
    @
    (* one connection: the cache's work repeats exactly, round after round *)
    let rec steps = function
      | a :: (b :: _ as r) -> (delta a b "cache.hit", delta a b "cache.miss") :: steps r
      | _ -> []
    in
    match steps plain.snaps with
    | x :: rest when (not mix) && List.exists (( <> ) x) rest ->
      [ "cache hits/misses differ between rounds" ]
    | _ -> []
  in
  (* latency quantiles per round, then the median over rounds: a slow
     stretch of the host moves a few rounds, not the whole figure *)
  let per_round q =
    1e3 *. median (List.map (fun r -> quantile q (List.map (fun o -> o.lat) r)) plain.rounds)
  in
  let wall = median plain.walls in
  let p50 = per_round 0.5 in
  let e2e =
    [
      ("setup_s", setup_s ());
      ("wall_s", wall);
      ("p50_ms", p50);
      ("p90_ms", per_round 0.9);
      ("area_total", ledger.area_total);
      ("peak_rss_mb", peak_rss);
    ]
  in
  let layers () =
    let rounds = float_of_int (List.length plain.walls) in
    let first = List.hd plain.snaps and final = List.nth plain.snaps (List.length plain.snaps - 1) in
    let per_round name = delta first final name /. rounds in
    let mean_ms name =
      let n = delta first final (name ^ ".count") in
      if n = 0. then 0. else delta first final (name ^ ".sum") /. n /. 1e6
    in
    let ph = Option.get traced in
    let trounds = float_of_int (List.length ph.walls) in
    let st = span_stats ph.events in
    let sp v = v /. trounds in
    let timed_ids = List.filter (fun (id, _, _) -> String.length id > 0 && id.[0] = 't') access in
    let handler_ms = median (List.map (fun (_, d, _) -> d) timed_ids) in
    let hits = per_round "cache.hit" and misses = per_round "cache.miss" in
    let reruns = Float.max 0. (per_round "engine.runs" -. misses) in
    let distinct f = List.sort_uniq compare (List.map f round) in
    let items = distinct (fun r -> r.item.label) in
    let item_of label = (List.find (fun r -> r.item.label = label) round).item in
    let mid = median_by_size (fun i -> i.graph) (List.map item_of items) in
    let _, b, _, _, _ = landmarks mid.graph in
    let info = min_power_info mid.graph in
    let designs =
      List.sort_uniq compare
        (List.filter_map
           (fun ((o : op), v) ->
             if o.req.kind = Synth && o.status = 200 && v = Pass then
               match Json.parse o.resp with
               | Ok j -> Some (o.req.item.label, o.req.pt, (served_design j).Check.instances)
               | Error _ -> None
             else None)
           verdicts)
    in
    let reqs_of kind =
      List.sort_uniq compare
        (List.filter_map (fun r -> if r.kind = kind then Some (r.item.label, r.pt) else None) round)
    in
    [
      ("pasap.calls", per_round "pasap.runs");
      ("palap.calls", per_round "palap.runs");
      ("pasap.offset_delays", per_round "pasap.offset_delays");
      ("pasap.self_s", sp st.pasap_s);
      ("palap.self_s", sp st.palap_s);
      ( "pasap.call_ms",
        median_call_ms [ (fun () -> Pasap.run mid.graph ~info ~horizon:b.t ~power_limit:b.p ()) ]);
      ( "palap.call_ms",
        median_call_ms [ (fun () -> Palap.run mid.graph ~info ~horizon:b.t ~power_limit:b.p ()) ]);
      ("engine.iterations", per_round "engine.iterations");
      ("engine.backtracks", per_round "engine.backtracks");
      ("engine.other_s", sp st.engine_other_s);
      ("engine.run.self_s", sp (self_of st "engine.run"));
      ("engine.iterate.self_s", sp (self_of st "engine.iterate"));
      ("clique.gain_evaluated", per_round "clique.gain_evaluated");
      ( "assemble.call_ms",
        median_call_ms
          (List.map
             (fun (l, pt, inst) () ->
               assemble_of (item_of l).graph ~time_limit:pt.t ~power_limit:pt.p inst)
             designs));
      ("explore.points", per_round "explore.points");
      ("explore.point.self_s", sp (self_of st "explore.point"));
      ( "preflight.call_ms",
        median_call_ms
          (List.map
             (fun (l, pt) () ->
               Preflight.analyze ~library ~time_limit:pt.t ~power_limit:pt.p (item_of l).graph)
             (match reqs_of Preflight_ep with [] -> reqs_of Synth | l -> l)));
      ( "preflight.pruned",
        float_of_int
          (List.fold_left
             (fun acc (o : op) ->
               let count sub s =
                 let re = Str.regexp_string sub in
                 let rec go i n = match Str.search_forward re s i with
                   | k -> go (k + 1) (n + 1) | exception Not_found -> n in
                 go 0 0
               in
               acc + count "\"status\":\"pruned\"" o.resp + count "\"infeasible\":true" o.resp)
             0 (List.concat plain.rounds))
        /. rounds);
      ("cache.hits", hits);
      ("cache.misses", misses);
      ("cache.reuse_ratio", (if hits = 0. then 0. else (hits -. reruns) /. hits));
      ("cache.find.self_s", sp (self_of st "cache.find"));
      ("cache.add.self_s", sp (self_of st "cache.add"));
      ( "fingerprint.call_ms",
        median_call_ms (List.map (fun l () -> Explore.fingerprint ~library (item_of l).graph) items));
      ("pool.wait_ms", mean_ms "pool.task_wait_ns");
      ("pool.run_ms", mean_ms "pool.task_run_ns");
      ("serve.queue_ms", median (List.map (fun (_, _, q) -> q) timed_ids));
      ("serve.handler_ms", handler_ms);
      ("serve.request.self_s", sp (self_of st "serve.request"));
      ("http.overhead_ms", p50 -. handler_ms);
      ("serve.coalesced", per_round "serve.coalesced");
      ( "http.parse_us",
        1e3
        *. median_call_ms
             (List.map
                (fun r () ->
                  Http.read_request
                    (Http.of_string (Client.request_bytes ~meth:"POST" ~path:(path_of r.kind) r.body)))
                round));
      ( "dfg.parse_ms",
        median_call_ms
          (List.filter_map
             (fun l -> Option.map (fun t () -> Text_format.of_string t) (item_of l).text)
             items));
      ( "check.call_ms",
        median_call_ms
          (List.filter_map
             (fun (l, pt) ->
               match Explore.solve ~library (item_of l).graph ~time_limit:pt.t ~power_limit:pt.p with
               | Explore.Feasible { design; _ } -> Some (fun () -> Analysis.run_all ~library design)
               | _ -> None)
             (reqs_of Check_ep)));
      ("check.self_s", sp (self_prefix st "check."));
      ("trace.overhead_s", median ph.walls -. wall);
    ]
  in
  {
    attempted = List.length all_ops;
    failed = List.length failures;
    correct = notes = [];
    metrics = (if trace then layers () else e2e);
    notes;
  }

(* --- output ------------------------------------------------------------------ *)

(* Names and units of the metrics BENCHMARK.json declares under [key]
   ("end_to_end" or "per_layer"), in its order: the one list of them. *)
let declared key =
  match Json.parse (Client.read_file "BENCHMARK.json") with
  | Ok spec -> List.map (fun m -> (str m "name", str m "unit")) (list spec key)
  | Error m -> failwith ("BENCHMARK.json: " ^ m)

(* The layers the synth workloads do not cross; they read 0 there. *)
let serve_layers =
  [ "preflight.pruned"; "cache.hits"; "cache.misses"; "cache.reuse_ratio"; "cache.find.self_s";
    "cache.add.self_s"; "pool.wait_ms"; "pool.run_ms"; "serve.queue_ms"; "serve.handler_ms";
    "serve.request.self_s"; "http.overhead_ms"; "serve.coalesced"; "http.parse_us";
    "check.call_ms"; "check.self_s" ]

(* Every declared metric with its declared unit. One a workload does not
   measure is an error unless [absent] names it, and so is one it measures
   that is not declared. *)
let with_units ~absent key metrics =
  let names = declared key in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n names) then failwith (n ^ " is not declared in BENCHMARK.json"))
    metrics;
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | Some v -> (name, v, unit)
      | None when List.mem name absent -> (name, 0., unit)
      | None -> failwith (name ^ " is declared in BENCHMARK.json but not measured"))
    names

let json_of_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (jstr name)
             (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
             (jstr u))
         metrics)
  ^ "}"

let workloads = [ "synth-capped"; "synth-uncapped"; "serve-mix"; "serve-renumbered" ]

(* The result and its metrics with units. *)
let run_workload ~exe ~dir ~seed ~seconds ~trace name =
  let r =
    match name with
    | "synth-capped" -> synth_workload ~power:capped_power ~seed ~seconds ~trace
    | "synth-uncapped" -> synth_workload ~power:infinity ~seed ~seconds ~trace
    | "serve-mix" -> serve_workload ~exe ~dir ~mix:true ~seed ~seconds ~trace
    | "serve-renumbered" -> serve_workload ~exe ~dir ~mix:false ~seed ~seconds ~trace
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  List.iter (fun n -> Printf.eprintf "%s: %s\n%!" name n) r.notes;
  let absent = if String.starts_with ~prefix:"synth" name then serve_layers else [] in
  (r, with_units ~absent (if trace then "per_layer" else "end_to_end") r.metrics)

let usage =
  "bench.exe --workload W --seed N --seconds S --trace 0|1 [--pchls EXE]\n\
   W: synth-capped | synth-uncapped | serve-mix | serve-renumbered | all"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let exe = ref "_build/default/bin/pchls.exe" and dir = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload name, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--pchls", Arg.Set_string exe, "EXE the pchls binary the serve workloads start");
      ("--dir", Arg.Set_string dir, "DIR directory for daemon logs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  (* exit through at_exit, which stops any daemon still running *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  let trace = !trace = 1 in
  let run = run_workload ~exe:!exe ~dir:!dir ~seed:!seed ~seconds:!seconds ~trace in
  let line (r, metrics) =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" r.correct
      r.attempted r.failed (json_of_metrics metrics)
  in
  if !workload = "all" then begin
    (* every workload from this one process: a table, then one JSON line
       whose metric names carry the workload as a prefix *)
    let results = List.map (fun w -> (w, run w)) workloads in
    List.iter
      (fun (w, ((r : result), metrics)) ->
        Printf.printf "%s: attempted %d, failed %d, correct %b\n" w r.attempted r.failed r.correct;
        List.iter
          (fun (n, v, u) ->
            if Float.is_finite v then Printf.printf "  %-24s %14.6f %s\n" n v u
            else Printf.printf "  %-24s %14s %s\n" n "n/a" u)
          metrics)
      results;
    let sum f = List.fold_left (fun a (_, (r, _)) -> a + f r) 0 results in
    print_endline
      (line
         ( {
             correct = List.for_all (fun (_, ((r : result), _)) -> r.correct) results;
             attempted = sum (fun r -> r.attempted);
             failed = sum (fun r -> r.failed);
             metrics = [];
             notes = [];
           },
           List.concat_map
             (fun (w, (_, metrics)) -> List.map (fun (n, v, u) -> (w ^ "/" ^ n, v, u)) metrics)
             results ))
  end
  else if List.mem !workload workloads then print_endline (line (run !workload))
  else begin
    prerr_endline usage;
    exit 2
  end
