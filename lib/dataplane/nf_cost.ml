module Graph = Lemur_spec.Graph
module Instance = Lemur_nf.Instance
module Datasheet = Lemur_nf.Datasheet
module Classifier = Lemur_classifier.Classifier

let nic_socket = 0
let flows = 40

let numa socket = if socket = nic_socket then Datasheet.Same else Datasheet.Diff
let numa_factor ~socket = Datasheet.numa_factor (numa socket)

let law ?(short_flows = false) node ~socket =
  let instance = node.Graph.instance in
  let kind = instance.Instance.kind in
  let size =
    match Instance.state_size instance with
    | Some s -> s
    | None -> Option.value (Datasheet.reference_size kind) ~default:0
  in
  let cost = Datasheet.cycle_cost_sized kind (numa socket) ~size in
  (* Short-lived flow churn stresses stateful NFs: cold tables and
     entry allocation raise both the mean and the tail (footnote 6's
     worst-case traffic; mirrors the profiler's model). *)
  let cost =
    if short_flows && Lemur_nf.Kind.stateful kind then
      {
        Datasheet.mean = cost.Datasheet.mean *. 1.012;
        min = cost.Datasheet.min;
        max = cost.Datasheet.max *. 1.018;
      }
    else cost
  in
  {
    Lemur_util.Prng.mu = cost.Datasheet.mean;
    sigma = (cost.Datasheet.max -. cost.Datasheet.min) /. 5.0;
    lo = cost.Datasheet.min;
    hi = cost.Datasheet.max;
  }

let acl_classifier (config : Lemur_placer.Plan.config) =
  let built = Hashtbl.create 4 in
  fun node ->
    let instance = node.Graph.instance in
    match config.Lemur_placer.Plan.acl_algo with
    | Some algo when Lemur_nf.Kind.equal instance.Instance.kind Lemur_nf.Kind.Acl ->
        let size =
          match Instance.state_size instance with
          | Some s -> s
          | None ->
              Option.value (Datasheet.reference_size Lemur_nf.Kind.Acl) ~default:1024
        in
        Some
          (match Hashtbl.find_opt built size with
          | Some c -> c
          | None ->
              let c =
                Classifier.build algo (Lemur_classifier.Ruleset.generate ~size ())
              in
              Hashtbl.replace built size c;
              c)
    | _ -> None

let flow_headers classifier graph =
  match List.find_map classifier (Graph.nodes graph) with
  | Some cls -> Lemur_classifier.Ruleset.headers (Classifier.ruleset cls) ~flows
  | None -> [||]
