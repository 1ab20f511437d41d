open Lemur_spec

(* Table 2, written in the specification language with its reusable
   subchains: Subchain 6 = LB->Limiter->ACL, Subchain 7 = ACL->Limiter,
   Subchain 8 = Detunnel->Encrypt->IPv4Fwd. *)

let prelude =
  "subchain sub6 = LB -> Limiter -> ACL\n\
   subchain sub7 = ACL -> Limiter\n\
   subchain sub8 = Detunnel -> Encrypt -> IPv4Fwd\n"

let chain1 =
  (* BPF -> Subchain7 -> BPF -> UrlFilter -> Subchain8, where both BPFs
     can short-circuit to Subchain 8 (the paper's two branch arrows).
     All three paths merge into one Subchain 8 instance, which makes
     chains 1-4 total the paper's 34 NF instances. *)
  "BPF -> [{'tc': 1, 'weight': 0.8, sub7 -> BPF -> \
   [{'tc': 2, 'weight': 0.8, UrlFilter}, {'weight': 0.2}]}, {'weight': 0.2}] \
   -> sub8"

let chain2 =
  "Encrypt -> LB -> [{'backend': 1, NAT}, {'backend': 2, NAT}, \
   {'backend': 3, NAT}] -> IPv4Fwd"

let chain3 = "Dedup -> ACL -> Limiter -> LB -> IPv4Fwd"

let chain4 =
  "Dedup -> ACL -> Monitor -> Tunnel -> BPF -> \
   [{'tc': 1, sub6}, {'tc': 2, sub6}, {'tc': 3, sub6}] -> IPv4Fwd"

let chain5 = "ACL -> UrlFilter -> FastEncrypt -> IPv4Fwd"

let spec_text = function
  | 1 -> chain1
  | 2 -> chain2
  | 3 -> chain3
  | 4 -> chain4
  | 5 -> chain5
  | n -> invalid_arg (Printf.sprintf "Chains.spec_text: no chain %d" n)

let graph n =
  let source =
    Printf.sprintf "%schain chain%d = %s" prelude n (spec_text n)
  in
  match Loader.load source with
  | [ spec ] -> spec.Loader.graph
  | _ -> assert false

let inputs_of_spec source =
  match Loader.load source with
  | exception Parser.Error { line; message } ->
      Error (Printf.sprintf "parse error at line %d: %s" line message)
  | exception Lexer.Error { line; col; message } ->
      Error (Printf.sprintf "lexical error at %d:%d: %s" line col message)
  | exception Graph.Invalid message -> Error message
  | [] -> Error "specification declares no chains"
  | chains -> (
      match
        List.map
          (fun (c : Loader.chain_spec) ->
            {
              Lemur_placer.Plan.id = c.Loader.chain_name;
              graph = c.Loader.graph;
              slo =
                Option.fold ~none:Lemur_slo.Slo.best_effort
                  ~some:Lemur_slo.Slo.of_params c.Loader.slo_args;
            })
          chains
      with
      | exception Lemur_slo.Slo.Invalid message -> Error ("bad SLO: " ^ message)
      | inputs -> Ok inputs)

let chain_input ?(slo = Lemur_slo.Slo.best_effort) n =
  {
    Lemur_placer.Plan.id = Printf.sprintf "chain%d" n;
    graph = graph n;
    slo;
  }

let base_rate config g =
  let open Lemur_placer in
  let clock =
    match config.Plan.topology.Lemur_topology.Topology.servers with
    | s :: _ -> s.Lemur_platform.Server.clock_hz
    | [] -> Lemur_util.Units.ghz 1.7
  in
  let software_cycles =
    List.filter_map
      (fun node ->
        let instance = node.Graph.instance in
        if List.mem Lemur_nf.Target.Cpp (Lemur_nf.Kind.targets instance.Lemur_nf.Instance.kind)
        then Some (Plan.instance_cycles config instance)
        else None)
      (Graph.nodes g)
  in
  match software_cycles with
  | [] -> infinity
  | cycles ->
      let slowest = List.fold_left Float.max 0.0 cycles in
      let pps = clock /. slowest in
      Lemur_util.Units.bps_of_pps ~pkt_bytes:config.Plan.pkt_bytes pps

let inputs_for_delta config ?(t_max = Lemur_util.Units.gbps 100.0) ~delta ns =
  List.map
    (fun n ->
      let g = graph n in
      let t_min = delta *. base_rate config g in
      let slo = Lemur_slo.Slo.make ~t_min ~t_max () in
      {
        Lemur_placer.Plan.id = Printf.sprintf "chain%d" n;
        graph = g;
        slo;
      })
    ns

let nf_instance_count ns =
  List.fold_left (fun acc n -> acc + Graph.size (graph n)) 0 ns
