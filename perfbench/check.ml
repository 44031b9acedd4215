(* Output checker that shares no code with the engine's own validation.

   It never calls Design.assemble, Schedule.validate or the analysers: a
   design is re-derived here from the graph, the module names the answer
   reports, and Table 1 of the paper written out below. *)

module Graph = Pchls_dfg.Graph
module Op = Pchls_dfg.Op

type module_data = {
  name : string;
  kinds : Op.kind list;
  area : float;
  latency : int;
  power : float;
}

(* Table 1 (Nielsen & Madsen, DATE 2003): area, clock cycles, power. *)
let table1 =
  let m name kinds area latency power = { name; kinds; area; latency; power } in
  [
    m "add" [ Op.Add ] 87. 1 2.5;
    m "sub" [ Op.Sub ] 87. 1 2.5;
    m "comp" [ Op.Comp ] 8. 1 2.5;
    m "ALU" [ Op.Add; Op.Sub; Op.Comp ] 97. 1 2.5;
    m "mult_ser" [ Op.Mult ] 103. 4 2.7;
    m "mult_par" [ Op.Mult ] 339. 2 8.1;
    m "input" [ Op.Input ] 16. 1 0.2;
    m "output" [ Op.Output ] 16. 1 1.7;
  ]

let find_module name = List.find_opt (fun m -> m.name = name) table1

let modules_for kind = List.filter (fun m -> List.mem kind m.kinds) table1

(* The answer as reported: instances as (module name, [(op, start)]) plus
   the figures the answer claims for itself. *)
type design = {
  instances : (string * (int * int) list) list;
  makespan : int;
  peak : float;
  fu_area : float;
}

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b)
let err fmt = Printf.ksprintf (fun m -> Error m) fmt
let ( let* ) = Result.bind

let rec first_error = function
  | [] -> Ok ()
  | f :: rest -> (
    match f () with Ok () -> first_error rest | Error _ as e -> e)

(* Every op bound exactly once, to a module that implements its kind. *)
let bindings g (d : design) =
  let bound = Hashtbl.create 64 in
  let* () =
    first_error
      (List.concat_map
         (fun (mname, ops) ->
           List.map
             (fun (op, start) () ->
               match find_module mname with
               | None -> err "unknown module %S" mname
               | Some m -> (
                 match Graph.find_node g op with
                 | None -> err "op %d is not in the graph" op
                 | Some node ->
                   if Hashtbl.mem bound op then err "op %d is bound twice" op
                   else if not (List.mem node.Graph.kind m.kinds) then
                     err "op %d (%s) is bound to %s, which does not implement it"
                       op node.Graph.name mname
                   else begin
                     Hashtbl.replace bound op (m, start);
                     Ok ()
                   end))
             ops)
         d.instances)
  in
  match List.find_opt (fun id -> not (Hashtbl.mem bound id)) (Graph.node_ids g) with
  | Some id -> err "op %d is not bound" id
  | None -> Ok bound

let design ~graph:g ~time_limit ~power_limit (d : design) =
  let* bound = bindings g d in
  let start id = snd (Hashtbl.find bound id) in
  let finish id =
    let m, s = Hashtbl.find bound id in
    s + m.latency
  in
  let* () =
    first_error
      (List.map
         (fun id () ->
           if start id < 0 then err "op %d starts before cycle 0" id
           else if finish id > time_limit then
             err "op %d finishes at %d, past T=%d" id (finish id) time_limit
           else Ok ())
         (Graph.node_ids g))
  in
  let* () =
    first_error
      (List.map
         (fun (a, b) () ->
           if start b < finish a then
             err "op %d starts at %d before its producer %d finishes at %d" b
               (start b) a (finish a)
           else Ok ())
         (Graph.edges g))
  in
  let* () =
    first_error
      (List.mapi
         (fun i (_, ops) () ->
           let spans =
             List.sort compare (List.map (fun (op, _) -> (start op, finish op, op)) ops)
           in
           let rec scan = function
             | (_, f1, o1) :: ((s2, _, o2) :: _ as rest) ->
               if s2 < f1 then err "ops %d and %d overlap on instance %d" o1 o2 i
               else scan rest
             | _ -> Ok ()
           in
           scan spans)
         d.instances)
  in
  let profile = Array.make (max 1 time_limit) 0. in
  Hashtbl.iter
    (fun _ (m, s) ->
      for c = s to s + m.latency - 1 do
        profile.(c) <- profile.(c) +. m.power
      done)
    bound;
  let peak = Array.fold_left Float.max 0. profile in
  let* () =
    match Array.find_index (fun p -> p > power_limit +. 1e-9) profile with
    | Some c -> err "cycle %d draws %g, over P<=%g" c profile.(c) power_limit
    | None -> Ok ()
  in
  let makespan =
    List.fold_left (fun acc id -> max acc (finish id)) 0 (Graph.node_ids g)
  in
  let fu_area =
    List.fold_left
      (fun acc (mname, _) ->
        match find_module mname with Some m -> acc +. m.area | None -> acc)
      0. d.instances
  in
  if makespan <> d.makespan then
    err "reported makespan %d, recomputed %d" d.makespan makespan
  else if not (close d.peak peak) then
    err "reported peak %g, recomputed %g" d.peak peak
  else if not (close d.fu_area fu_area) then
    err "reported FU area %g, recomputed %g" d.fu_area fu_area
  else Ok ()

(* Landmarks of a (graph, T, P<) point, from Table 1 alone. *)
let cheapest f kind =
  List.fold_left (fun acc m -> Float.min acc (f m)) infinity (modules_for kind)

let fastest_critical_path g =
  let fastest id =
    List.fold_left
      (fun acc m -> min acc m.latency)
      max_int
      (modules_for (Graph.kind g id))
  in
  Graph.critical_path g ~latency:fastest

(* Min-power module of each op: the one a fully serial schedule uses. *)
let min_power_module kind =
  match modules_for kind with
  | [] -> invalid_arg "Check.min_power_module"
  | first :: rest ->
    List.fold_left (fun b m -> if m.power < b.power then m else b) first rest

let serial_length g =
  List.fold_left
    (fun acc id -> acc + (min_power_module (Graph.kind g id)).latency)
    0 (Graph.node_ids g)

let max_min_power g =
  List.fold_left
    (fun acc id -> Float.max acc (cheapest (fun m -> m.power) (Graph.kind g id)))
    0. (Graph.node_ids g)

(* A fully serial min-power schedule fits: some design must exist. *)
let serial_fits g ~time_limit ~power_limit =
  serial_length g <= time_limit && max_min_power g <= power_limit

(* No design can exist. *)
let provably_infeasible g ~time_limit ~power_limit =
  time_limit < fastest_critical_path g || power_limit < max_min_power g

(* The renumbered twin of [g]: its sorted node ids rotated by one place.
   Same graph, other numbering. *)
let rotate g =
  let ids = Array.of_list (Graph.node_ids g) in
  let n = Array.length ids in
  let pos = Hashtbl.create n in
  Array.iteri (fun i id -> Hashtbl.replace pos id i) ids;
  let f id = ids.((Hashtbl.find pos id + 1) mod n) in
  Graph.create_exn ~name:(Graph.name g)
    ~nodes:(List.map (fun (nd : Graph.node) -> { nd with Graph.id = f nd.Graph.id }) (Graph.nodes g))
    ~edges:(List.map (fun (a, b) -> (f a, f b)) (Graph.edges g))

(* Every "node N (name)" a reason cites must name node N of the graph the
   request submitted. *)
let cited_nodes reason =
  let re = Str.regexp "node \\([0-9]+\\) (\\([^)]*\\))" in
  let rec go pos acc =
    match Str.search_forward re reason pos with
    | exception Not_found -> List.rev acc
    | p ->
      let id = int_of_string (Str.matched_group 1 reason) in
      let name = Str.matched_group 2 reason in
      go (p + 1) ((id, name) :: acc)
  in
  go 0 []

let reason ~graph:g text =
  first_error
    (List.map
       (fun (id, name) () ->
         match Graph.find_node g id with
         | Some n when n.Graph.name = name -> Ok ()
         | Some n ->
           err "reason cites node %d (%s) but node %d is %s" id name id
             n.Graph.name
         | None -> err "reason cites node %d (%s), which does not exist" id name)
       (cited_nodes text))
