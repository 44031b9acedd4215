(* The independent output checker rejects corrupted answers. *)

open Pchls_dfg

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let node id name kind = { Graph.id; name; kind }

(* x, y -> a = x + y, b = x - y -> m = a * b -> o *)
let g =
  Graph.create_exn ~name:"tiny"
    ~nodes:
      [ node 0 "x" Op.Input; node 1 "y" Op.Input; node 2 "a" Op.Add; node 3 "b" Op.Sub;
        node 4 "m" Op.Mult; node 5 "o" Op.Output ]
    ~edges:[ (0, 2); (1, 2); (0, 3); (1, 3); (2, 4); (3, 4); (4, 5) ]

let valid =
  {
    Check.instances =
      [ ("input", [ (0, 0); (1, 1) ]); ("add", [ (2, 2) ]); ("sub", [ (3, 2) ]);
        ("mult_ser", [ (4, 3) ]); ("output", [ (5, 7) ]) ];
    makespan = 8;
    peak = 5.;
    fu_area = 309.;
  }

let with_instances instances = { valid with Check.instances }

let rejects ?(time_limit = 8) ?(power_limit = 10.) ~graph what d expect =
  match Check.design ~graph ~time_limit ~power_limit d with
  | Ok () -> Alcotest.failf "%s: accepted" what
  | Error m ->
    if not (contains m expect) then
      Alcotest.failf "%s: rejected for %S, expected %S" what m expect

let test_valid () =
  match Check.design ~graph:g ~time_limit:8 ~power_limit:10. valid with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_past_t () =
  rejects ~graph:g "output moved past T"
    (with_instances
       [ ("input", [ (0, 0); (1, 1) ]); ("add", [ (2, 2) ]); ("sub", [ (3, 2) ]);
         ("mult_ser", [ (4, 3) ]); ("output", [ (5, 8) ]) ])
    "past T"

let test_overlap () =
  rejects ~graph:g "add and sub overlapped on one ALU"
    (with_instances
       [ ("input", [ (0, 0); (1, 1) ]); ("ALU", [ (2, 2); (3, 2) ]);
         ("mult_ser", [ (4, 3) ]); ("output", [ (5, 7) ]) ])
    "overlap"

let test_power () =
  rejects ~graph:g ~power_limit:4.9 "cycle 2 over the cap" valid "over P"

let test_bound_twice () =
  rejects ~graph:g "add bound twice"
    (with_instances
       [ ("input", [ (0, 0); (1, 1) ]); ("add", [ (2, 2) ]); ("ALU", [ (2, 3) ]);
         ("sub", [ (3, 2) ]); ("mult_ser", [ (4, 3) ]); ("output", [ (5, 7) ]) ])
    "bound twice"

let test_reported_figures () =
  rejects ~graph:g "peak misreported" { valid with Check.peak = 4. } "peak";
  rejects ~graph:g "makespan misreported" { valid with Check.makespan = 7 } "makespan";
  rejects ~graph:g "area misreported" { valid with Check.fu_area = 300. } "FU area"

let hal = Benchmarks.hal

let test_twin_design () =
  match
    Pchls_core.Engine.run ~library:Pchls_fulib.Library.default ~time_limit:17
      ~power_limit:10. hal
  with
  | Pchls_core.Engine.Infeasible { reason } -> Alcotest.fail reason
  | Pchls_core.Engine.Synthesized (d, _) ->
    let module D = Pchls_core.Design in
    let answer =
      {
        Check.instances =
          List.map
            (fun (i : D.instance) -> (i.D.spec.Pchls_fulib.Module_spec.name, i.D.ops))
            (D.instances d);
        makespan = D.makespan d;
        peak = Pchls_power.Profile.peak (D.profile d);
        fu_area = (D.area d).D.fu;
      }
    in
    (match Check.design ~graph:hal ~time_limit:17 ~power_limit:10. answer with
    | Ok () -> ()
    | Error m -> Alcotest.failf "engine design rejected: %s" m);
    (match Check.design ~graph:(Check.rotate hal) ~time_limit:17 ~power_limit:10. answer with
    | Ok () -> Alcotest.fail "a design for the other numbering was accepted"
    | Error _ -> ())

let test_twin_reason () =
  match
    Pchls_core.Engine.run ~library:Pchls_fulib.Library.default ~time_limit:3
      ~power_limit:5. hal
  with
  | Pchls_core.Engine.Synthesized _ -> Alcotest.fail "hal at T=3 synthesized"
  | Pchls_core.Engine.Infeasible { reason } ->
    Alcotest.(check bool) "reason cites a node" true (Check.cited_nodes reason <> []);
    Alcotest.(check bool) "own numbering accepted" true (Result.is_ok (Check.reason ~graph:hal reason));
    Alcotest.(check bool) "twin numbering rejected" true
      (Result.is_error (Check.reason ~graph:(Check.rotate hal) reason))

let test_landmarks () =
  let serial = Check.serial_length g in
  Alcotest.(check int) "serial length" 9 serial;
  Alcotest.(check bool) "serial fits" true (Check.serial_fits g ~time_limit:9 ~power_limit:2.7);
  Alcotest.(check bool) "one cycle short" false (Check.serial_fits g ~time_limit:8 ~power_limit:2.7);
  Alcotest.(check int) "fastest critical path" 5 (Check.fastest_critical_path g);
  Alcotest.(check bool) "below critical path" true
    (Check.provably_infeasible g ~time_limit:4 ~power_limit:100.);
  Alcotest.(check bool) "below cheapest multiplier" true
    (Check.provably_infeasible g ~time_limit:20 ~power_limit:2.6);
  Alcotest.(check bool) "feasible point" false
    (Check.provably_infeasible g ~time_limit:5 ~power_limit:2.7)

let () =
  Alcotest.run "perfbench-check"
    [
      ( "design",
        [
          Alcotest.test_case "valid design accepted" `Quick test_valid;
          Alcotest.test_case "op moved past T" `Quick test_past_t;
          Alcotest.test_case "ops overlapped on one instance" `Quick test_overlap;
          Alcotest.test_case "cycle over the power cap" `Quick test_power;
          Alcotest.test_case "op bound twice" `Quick test_bound_twice;
          Alcotest.test_case "misreported figures" `Quick test_reported_figures;
        ] );
      ( "renumbering",
        [
          Alcotest.test_case "design from a renumbered twin" `Quick test_twin_design;
          Alcotest.test_case "reason from a renumbered twin" `Quick test_twin_reason;
        ] );
      ("landmarks", [ Alcotest.test_case "serial and infeasible points" `Quick test_landmarks ]);
    ]
