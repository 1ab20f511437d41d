type rack = {
  rack_name : string;
  rack : Topology.t;
  uplink_up : float;
  uplink_down : float;
}

type t = { spines : int; racks : rack list }

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let make ?(spines = 2) racks =
  if racks = [] then invalid "fabric: no racks";
  if spines <= 0 then invalid "fabric: %d spines" spines;
  List.iter
    (fun r ->
      if r.uplink_up <= 0.0 || r.uplink_down <= 0.0 then
        invalid "fabric: rack %s has a non-positive uplink capacity"
          r.rack_name)
    racks;
  let sorted =
    List.sort (fun a b -> String.compare a.rack_name b.rack_name) racks
  in
  let rec dup = function
    | a :: (b :: _ as rest) ->
        if String.equal a.rack_name b.rack_name then Some a.rack_name
        else dup rest
    | _ -> None
  in
  (match dup sorted with
  | Some name -> invalid "fabric: duplicate rack name %s" name
  | None -> ());
  { spines; racks = sorted }

let synthetic ?(racks = 4) ?(servers_per_rack = 6) ?(cores_per_socket = 8)
    ?(spines = 2) ?(uplink_gbps = 100.0) () =
  if racks <= 0 then invalid "fabric: %d racks" racks;
  let uplink = float_of_int spines *. uplink_gbps *. 1e9 in
  make ~spines
    (List.init racks (fun i ->
         let smartnic = i mod 4 = 0 in
         {
           rack_name = Printf.sprintf "rack%02d" i;
           rack =
             Topology.testbed ~num_servers:servers_per_rack ~cores_per_socket
               ~smartnic ();
           uplink_up = uplink;
           uplink_down = uplink;
         }))

let num_racks t = List.length t.racks
let rack_names t = List.map (fun r -> r.rack_name) t.racks

let find_rack t name =
  List.find (fun r -> String.equal r.rack_name name) t.racks

let uplink_capacity t name dir =
  let r = find_rack t name in
  match dir with `Up -> r.uplink_up | `Down -> r.uplink_down

let total_nf_cores t =
  List.fold_left (fun acc r -> acc + Topology.total_nf_cores r.rack) 0 t.racks

(* ------------------------------------------------------------------ *)
(* Tenants                                                             *)

type tenant = {
  tn_name : string;
  tn_subscribers : int;
  tn_rate_per_sub : float;
  tn_chains : int;
  tn_spec : string;
  tn_home : string option;
  tn_pinned : bool;
  tn_tmax : float;
  tn_dmax : float option;
}

let tenant ?home ?(pinned = false) ?(tmax = 100e9) ?dmax ?(chains = 1) ~name
    ~subscribers ~rate_per_sub spec =
  if subscribers <= 0 then invalid "tenant %s: %d subscribers" name subscribers;
  if rate_per_sub <= 0.0 then
    invalid "tenant %s: non-positive per-subscriber rate" name;
  if chains <= 0 then invalid "tenant %s: %d chain instances" name chains;
  if pinned && home = None then
    invalid "tenant %s: pinned without a home rack" name;
  {
    tn_name = name;
    tn_subscribers = subscribers;
    tn_rate_per_sub = rate_per_sub;
    tn_chains = chains;
    tn_spec = spec;
    tn_home = home;
    tn_pinned = pinned;
    tn_tmax = tmax;
    tn_dmax = dmax;
  }

type demand = {
  d_id : string;
  d_tenant : string;
  d_graph : Lemur_spec.Graph.t;
  d_slo : Lemur_slo.Slo.t;
  d_home : string option;
  d_pinned : bool;
}

let expand tenants =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun tn ->
      if Hashtbl.mem seen tn.tn_name then
        invalid "duplicate tenant name %s" tn.tn_name;
      Hashtbl.add seen tn.tn_name ())
    tenants;
  List.concat_map
    (fun tn ->
      let graph =
        Lemur_spec.Loader.chain_of_string ~name:tn.tn_name tn.tn_spec
      in
      let aggregate =
        float_of_int tn.tn_subscribers *. tn.tn_rate_per_sub
      in
      let share = aggregate /. float_of_int tn.tn_chains in
      (* Float division loses at most ulps; pin the first instance so
         the shares sum back to the aggregate exactly. *)
      let first = aggregate -. (share *. float_of_int (tn.tn_chains - 1)) in
      List.init tn.tn_chains (fun k ->
          let t_min = if k = 0 then first else share in
          {
            d_id = Printf.sprintf "%s/%d" tn.tn_name k;
            d_tenant = tn.tn_name;
            d_graph = graph;
            d_slo =
              Lemur_slo.Slo.make ~t_min ~t_max:(Float.max tn.tn_tmax t_min)
                ?d_max:tn.tn_dmax ();
            d_home = tn.tn_home;
            d_pinned = tn.tn_pinned;
          }))
    tenants

let total_demand demands =
  List.fold_left (fun acc d -> acc +. d.d_slo.Lemur_slo.Slo.t_min) 0.0 demands

(* Short, cheap, all-software-placeable pipelines (every NF replicable
   and C++-capable) so per-rack solves stay fast at thousands of
   chains. Deliberately no IPv4Fwd: under the evaluation capability
   model it is P4-only, and forcing tens of switch-resident tables per
   rack would overflow any ToR stage budget — the heuristic still
   offloads these NFs to the ToR where stages allow, but can evict to
   the servers when they do not. *)
let templates =
  [|
    "ACL -> NAT";
    "BPF -> ACL";
    "BPF -> NAT";
    "ACL -> NAT -> LB";
    "BPF -> ACL -> NAT";
  |]

let synthetic_tenants ?(seed = 1) ?(tenants = 8) ?(chains = 64) t =
  let subscribers_per_tenant = 250_000 in
  if tenants <= 0 then invalid "synthetic_tenants: %d tenants" tenants;
  if chains < tenants then
    invalid "synthetic_tenants: %d chains for %d tenants" chains tenants;
  let rng = Lemur_util.Prng.create ~seed in
  let racks = Array.of_list (rack_names t) in
  (* Demand sized off the fabric's compute pool: ~0.4 Gbps of floor per
     NF core keeps racks busy without making every shard infeasible.
     Per-tenant shares are deliberately uneven (x0.5..x2 weights) and
     unpinned tenants land on random home racks, so some racks run hot
     and the partitioner's spill / uplink-budget path actually
     exercises. Pinned tenants are spread round-robin: the planner can
     never move them, so a random pile-up could make a shard
     unfixably infeasible. *)
  let target_total = 0.4e9 *. float_of_int (total_nf_cores t) in
  let weights =
    Array.init tenants (fun _ -> 0.5 +. Lemur_util.Prng.float rng 1.5)
  in
  let weight_sum = Array.fold_left ( +. ) 0.0 weights in
  let base_chains = chains / tenants and extra = chains mod tenants in
  List.init tenants (fun i ->
      let pinned = i mod 3 = 2 in
      let home =
        if pinned then racks.(i mod Array.length racks)
        else racks.(Lemur_util.Prng.int rng (Array.length racks))
      in
      let spec = Lemur_util.Prng.choose rng templates in
      let n_chains = base_chains + (if i < extra then 1 else 0) in
      let per_tenant = target_total *. weights.(i) /. weight_sum in
      tenant ~home ~pinned
        ~chains:n_chains
        ~name:(Printf.sprintf "tenant%02d" i)
        ~subscribers:subscribers_per_tenant
        ~rate_per_sub:(per_tenant /. float_of_int subscribers_per_tenant)
        spec)
