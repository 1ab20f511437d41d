open Lemur_spec

type result = {
  objective : float;
  rates : (string * float) list;
  server_nfs : (string * string list) list;
  cores : (string * int) list;
}

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

type nf_var = {
  node : Graph.node;
  cycles : float;
  tables : int;
  placement : [ `Fixed_server | `Fixed_switch | `Free of Lemur_lp.Lp.var ];
}

(* Value of an x_i term in a constraint: fixed placements contribute a
   constant, free ones a variable. We accumulate (terms, constant). *)
type linexpr = { terms : (float * Lemur_lp.Lp.var) list; const : float }

let lx ?(terms = []) ?(const = 0.0) () = { terms; const }
let ( ++ ) a b = { terms = a.terms @ b.terms; const = a.const +. b.const }
let scale k a = { terms = List.map (fun (c, v) -> (k *. c, v)) a.terms; const = k *. a.const }
let of_var v = lx ~terms:[ (1.0, v) ] ()
let of_const c = lx ~const:c ()

let x_expr nf =
  match nf.placement with
  | `Fixed_server -> of_const 1.0
  | `Fixed_switch -> of_const 0.0
  | `Free v -> of_var v

(* a <= b  as  a - b <= 0 *)
let add_le lp a b =
  Lemur_lp.Lp.add_constraint lp
    (a.terms @ List.map (fun (c, v) -> (-.c, v)) b.terms)
    `Le (b.const -. a.const)

let solve_checked ?(max_nodes = 200_000) ?(warm = true) config inputs =
  let tm = Lemur_telemetry.Telemetry.current () in
  Lemur_telemetry.Telemetry.with_span tm "placer.milp.solve" @@ fun () ->
  let lp = Lemur_lp.Lp.create () in
  let topo = config.Plan.topology in
  let clock =
    match topo.Lemur_topology.Topology.servers with
    | s :: _ -> s.Lemur_platform.Server.clock_hz
    | [] -> unsupported "no server in the topology"
  in
  let total_cores = Lemur_topology.Topology.total_nf_cores topo in
  let link_cap =
    match topo.Lemur_topology.Topology.servers with
    | s :: _ -> Lemur_platform.Server.nic_capacity s
    | [] -> 0.0
  in
  let port_cap = topo.Lemur_topology.Topology.tor.Lemur_platform.Pisa.port_capacity in
  let pkt_bits = Lemur_util.Units.bytes_to_bits config.Plan.pkt_bytes in
  (* Rates are expressed in Gbit/s inside the model so every coefficient
     is O(1)-O(100); the simplex misbehaves on mixed 1e0/1e11 scales. *)
  let gs = 1e-9 in
  (* conservative static stage budget: total switch tables the pipeline
     can hold outside the steering/NSH stages, at one fewer table per
     stage than the compiler manages (the static-estimate regime) *)
  let pisa = topo.Lemur_topology.Topology.tor in
  let table_budget =
    (pisa.Lemur_platform.Pisa.stages - 3)
    * (pisa.Lemur_platform.Pisa.tables_per_stage - 1)
  in
  let chains =
    List.map
      (fun input ->
        let graph = input.Plan.graph in
        List.iter
          (fun node ->
            if Graph.is_branch graph node.Graph.id || Graph.is_merge graph node.Graph.id
            then unsupported "chain %s has branches (outside the MILP's scope)" input.Plan.id;
            if not (Lemur_nf.Kind.replicable node.Graph.instance.Lemur_nf.Instance.kind)
            then
              unsupported "chain %s contains the non-replicable %s" input.Plan.id
                node.Graph.instance.Lemur_nf.Instance.name)
          (Graph.nodes graph);
        let nfs =
          List.map
            (fun node ->
              let allowed = Plan.allowed_locations config node.Graph.instance in
              let can_server = List.mem Plan.Server allowed in
              let can_switch = List.mem Plan.Switch allowed in
              let placement =
                match (can_server, can_switch) with
                | true, true ->
                    `Free
                      (Lemur_lp.Lp.add_var lp ~ub:1.0 ~integer:true
                         ~name:
                           (Printf.sprintf "x_%s_%s" input.Plan.id
                              node.Graph.instance.Lemur_nf.Instance.name)
                         ())
                | true, false -> `Fixed_server
                | false, true -> `Fixed_switch
                | false, false ->
                    unsupported "%s has no server/switch implementation"
                      node.Graph.instance.Lemur_nf.Instance.name
              in
              {
                node;
                cycles = Plan.instance_cycles config node.Graph.instance;
                tables =
                  Lemur_nf.Datasheet.p4_table_count
                    node.Graph.instance.Lemur_nf.Instance.kind;
                placement;
              })
            (Graph.nodes graph)
        in
        let slo = input.Plan.slo in
        let r_ub = Float.min port_cap slo.Lemur_slo.Slo.t_max *. gs in
        let r =
          Lemur_lp.Lp.add_var lp ~lb:(slo.Lemur_slo.Slo.t_min *. gs) ~ub:r_ub
            ~name:("r_" ^ input.Plan.id) ()
        in
        let k =
          Lemur_lp.Lp.add_var lp ~ub:(float_of_int total_cores) ~integer:true
            ~name:("k_" ^ input.Plan.id) ()
        in
        (input, nfs, r, k, r_ub))
      inputs
  in
  (* Per-chain structural constraints. *)
  let u_sums =
    List.map
      (fun (input, nfs, r, k, r_ub) ->
        let n = List.length nfs in
        (* boundary variables b_0..b_n with |x_i - x_{i+1}| lower bounds;
           x_0 = x_{n+1} = 0 (the chain enters and leaves at the ToR) *)
        let bs =
          List.init (n + 1) (fun j ->
              Lemur_lp.Lp.add_var lp ~ub:1.0
                ~name:(Printf.sprintf "b_%s_%d" input.Plan.id j)
                ())
        in
        let x_at j =
          if j = 0 || j > n then of_const 0.0 else x_expr (List.nth nfs (j - 1))
        in
        List.iteri
          (fun j b ->
            let prev = x_at j and next = x_at (j + 1) in
            (* b >= x_j - x_{j+1} and b >= x_{j+1} - x_j *)
            add_le lp (prev ++ scale (-1.0) next) (of_var b);
            add_le lp (next ++ scale (-1.0) prev) (of_var b))
          bs;
        (* McCormick products y_i = r x_i and u_j = r b_j *)
        let product name bound_var_expr =
          let y = Lemur_lp.Lp.add_var lp ~name () in
          (* y <= R * x *)
          add_le lp (of_var y) (scale r_ub bound_var_expr);
          (* y <= r *)
          add_le lp (of_var y) (of_var r);
          (* y >= r - R (1 - x) *)
          add_le lp
            (of_var r ++ scale r_ub bound_var_expr ++ of_const (-.r_ub))
            (of_var y);
          y
        in
        let ys =
          List.mapi
            (fun i nf ->
              match nf.placement with
              | `Fixed_switch -> None
              | `Fixed_server | `Free _ ->
                  Some
                    ( nf,
                      product
                        (Printf.sprintf "y_%s_%d" input.Plan.id i)
                        (x_expr nf) ))
            nfs
          |> List.filter_map Fun.id
        in
        let us =
          List.mapi
            (fun j b -> product (Printf.sprintf "u_%s_%d" input.Plan.id j) (of_var b))
            bs
        in
        (* core capacity: r * work <= k * f * pkt_bits ... work in
           cycles/packet, r in bit/s: (r/pkt_bits) * work <= k * f *)
        let work_terms =
          List.map (fun (nf, y) -> (nf.cycles /. pkt_bits, y)) ys
          @ List.map
              (fun u -> (Lemur_bess.Cost.nsh_overhead_cycles /. 2.0 /. pkt_bits, u))
              us
        in
        Lemur_lp.Lp.add_constraint lp
          (work_terms @ [ (-.(clock *. gs), k) ])
          `Le 0.0;
        (* every server segment needs at least one core: k >= (1/2) sum b *)
        Lemur_lp.Lp.add_constraint lp
          (List.map (fun b -> (0.5, b)) bs @ [ (-1.0, k) ])
          `Le 0.0;
        (input, nfs, r, k, us))
      chains
  in
  (* shared resources *)
  Lemur_lp.Lp.add_constraint lp
    (List.map (fun (_, _, _, k, _) -> (1.0, k)) u_sums)
    `Le
    (float_of_int total_cores);
  (* link: sum over chains of r * segments = (1/2) sum u <= C *)
  Lemur_lp.Lp.add_constraint lp
    (List.concat_map (fun (_, _, _, _, us) -> List.map (fun u -> (0.5, u)) us) u_sums)
    `Le (link_cap *. gs);
  (* conservative stage budget on switch tables *)
  let switch_table_terms =
    List.concat_map
      (fun (_, nfs, _, _, _) ->
        List.filter_map
          (fun nf ->
            match nf.placement with
            | `Fixed_switch | `Fixed_server -> None
            | `Free v -> Some (-.float_of_int nf.tables, v))
          nfs)
      u_sums
  in
  let fixed_switch_tables =
    Lemur_util.Listx.sum_by
      (fun (_, nfs, _, _, _) ->
        Lemur_util.Listx.sum_by
          (fun nf ->
            match nf.placement with
            | `Fixed_switch -> float_of_int nf.tables
            | `Fixed_server | `Free _ -> 0.0)
          nfs)
      u_sums
  in
  (* sum over free NFs of tables*(1 - x) + fixed <= budget *)
  let free_tables_total =
    Lemur_util.Listx.sum_by
      (fun (_, nfs, _, _, _) ->
        Lemur_util.Listx.sum_by
          (fun nf ->
            match nf.placement with `Free _ -> float_of_int nf.tables | _ -> 0.0)
          nfs)
      u_sums
  in
  Lemur_lp.Lp.add_constraint lp switch_table_terms `Le
    (float_of_int table_budget -. fixed_switch_tables -. free_tables_total);
  (* objective *)
  Lemur_lp.Lp.set_objective lp ~maximize:true
    (List.map (fun (_, _, r, _, _) -> (1.0, r)) u_sums);
  Lemur_telemetry.Counter.incr
    ~by:(Lemur_lp.Lp.num_vars lp)
    (Lemur_telemetry.Telemetry.counter tm "placer.milp.vars");
  Lemur_telemetry.Counter.incr
    ~by:(Lemur_lp.Lp.num_constraints lp)
    (Lemur_telemetry.Telemetry.counter tm "placer.milp.constraints");
  match Lemur_lp.Lp.solve_milp ~max_nodes ~warm lp with
  | Error e -> Error e
  | Ok (Lemur_lp.Lp.Infeasible | Lemur_lp.Lp.Unbounded) -> Ok None
  | Ok (Lemur_lp.Lp.Optimal { values; _ }) ->
      let rates =
        List.map (fun (input, _, r, _, _) -> (input.Plan.id, values.(r) /. gs)) u_sums
      in
      let objective =
        List.fold_left2
          (fun acc (_, rate) (input, _, _, _, _) ->
            acc +. Float.max 0.0 (rate -. input.Plan.slo.Lemur_slo.Slo.t_min))
          0.0 rates
          u_sums
      in
      Ok
        (Some
           {
             objective;
             rates;
             server_nfs =
               List.map
                 (fun (input, nfs, _, _, _) ->
                   ( input.Plan.id,
                     List.filter_map
                       (fun nf ->
                         let on_server =
                           match nf.placement with
                           | `Fixed_server -> true
                           | `Fixed_switch -> false
                           | `Free v -> values.(v) > 0.5
                         in
                         if on_server then
                           Some nf.node.Graph.instance.Lemur_nf.Instance.name
                         else None)
                       nfs ))
                 u_sums;
             cores =
               List.map
                 (fun (input, _, _, k, _) ->
                   (input.Plan.id, int_of_float (Float.round values.(k))))
                 u_sums;
           })

(* The degrading entry point: a solver give-up is not infeasibility, but
   the caller can't act on it either — count it and fall back to the
   heuristic answer (no cross-check), exactly as if the MILP were out of
   scope. *)
let solve ?max_nodes ?warm config inputs =
  match solve_checked ?max_nodes ?warm config inputs with
  | Ok r -> r
  | Error _ ->
      let tm = Lemur_telemetry.Telemetry.current () in
      Lemur_telemetry.Counter.incr
        (Lemur_telemetry.Telemetry.counter tm "placer.milp.degraded");
      None
