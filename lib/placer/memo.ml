(* Structural identity for the placer's result cache: digests of the
   config content and of each chain graph, so that structurally
   identical subproblems — across scenarios, across the fuzz corpus,
   across `{ config with ... }` ablation copies that happen to coincide
   — produce the same key, while any difference that could change a
   placement changes it. SLOs deliberately stay out of the signatures.

   Configs and graphs are immutable, so a record's digest is computed
   once and then found by [==] in a bounded MRU association list. The
   lists are domain-local ([Domain.DLS]): every [Lemur_util.Pool] worker
   keeps its own, so lookups never contend. Only the lifetime
   hit/miss/eviction totals are shared, as atomics. *)
type state = {
  mutable cfg_sigs : (Plan.config * string) list;
  mutable graph_sigs : (Lemur_spec.Graph.t * string) list;
}

let max_cfg_sigs = 8
let max_graph_sigs = 64

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cfg_sigs = []; graph_sigs = [] })

let state () = Domain.DLS.get state_key
let total_hits = Atomic.make 0
let total_misses = Atomic.make 0
let total_evictions = Atomic.make 0

let clear () =
  let st = state () in
  st.cfg_sigs <- [];
  st.graph_sigs <- []

let stats () = (Atomic.get total_hits, Atomic.get total_misses)
let evictions () = Atomic.get total_evictions

(* [key]'s digest from [entries], or [digest key] prepended to them; the
   entry pushed past [cap] counts as an eviction. Returns the digest and
   the list to store back. *)
let lookup ~cap digest key entries =
  match List.assq_opt key entries with
  | Some s ->
      Atomic.incr total_hits;
      (s, entries)
  | None ->
      Atomic.incr total_misses;
      if List.compare_length_with entries cap >= 0 then
        Atomic.incr total_evictions;
      let s = digest key in
      (s, (key, s) :: Lemur_util.Listx.take (cap - 1) entries)

(* ------------------------------------------------------------------ *)
(* Serializations: they spell out every config / graph field a
   placement can depend on. *)

let buf_float b f = Buffer.add_string b (Printf.sprintf "%h," f)
let buf_int b i = Buffer.add_string b (string_of_int i ^ ",")

let buf_str b s =
  (* length-prefixed so adjacent names can never alias *)
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s;
  Buffer.add_char b ','

let topology_sig b (t : Lemur_topology.Topology.t) =
  let open Lemur_platform in
  Buffer.add_string b "tor{";
  buf_str b t.tor.Pisa.name;
  buf_int b t.tor.Pisa.ports;
  buf_float b t.tor.Pisa.port_capacity;
  buf_int b t.tor.Pisa.stages;
  buf_int b t.tor.Pisa.tables_per_stage;
  buf_float b t.tor.Pisa.latency;
  Buffer.add_string b "}srv[";
  List.iter
    (fun (s : Server.t) ->
      buf_str b s.Server.name;
      buf_int b s.Server.sockets;
      buf_int b s.Server.cores_per_socket;
      buf_float b s.Server.clock_hz;
      buf_int b s.Server.reserved_cores;
      List.iter
        (fun (n : Server.nic) ->
          buf_str b n.Server.nic_name;
          buf_float b n.Server.capacity;
          buf_int b n.Server.socket)
        s.Server.nics;
      Buffer.add_char b ';')
    t.servers;
  Buffer.add_string b "]nic[";
  List.iter
    (fun (n : Smartnic.t) ->
      buf_str b n.Smartnic.name;
      buf_float b n.Smartnic.capacity;
      buf_int b n.Smartnic.max_instructions;
      buf_int b n.Smartnic.max_stack_bytes;
      Buffer.add_string b (Bool.to_string n.Smartnic.allows_calls);
      Buffer.add_string b (Bool.to_string n.Smartnic.allows_back_edges);
      buf_str b n.Smartnic.host;
      Buffer.add_char b ';')
    t.smartnics;
  Buffer.add_string b "]of[";
  (match t.ofswitch with
  | None -> ()
  | Some sw ->
      buf_str b sw.Ofswitch.name;
      buf_float b sw.Ofswitch.capacity;
      buf_int b sw.Ofswitch.vid_bits;
      buf_float b sw.Ofswitch.latency;
      List.iter
        (fun k -> buf_str b (Lemur_nf.Kind.name k))
        sw.Ofswitch.table_order);
  Buffer.add_string b "]";
  buf_float b t.bounce_latency

let config_digest (config : Plan.config) =
  let b = Buffer.create 512 in
  topology_sig b config.Plan.topology;
  Buffer.add_string b "|p:";
  Buffer.add_string b (Lemur_profiler.Profiler.signature config.Plan.profiler);
  Buffer.add_string b "|";
  buf_int b config.Plan.pkt_bytes;
  Buffer.add_string b (Bool.to_string config.Plan.eval_capabilities);
  Buffer.add_string b
    (match config.Plan.numa with
    | Lemur_nf.Datasheet.Same -> "S"
    | Lemur_nf.Datasheet.Diff -> "D");
  Buffer.add_string b (Bool.to_string config.Plan.metron_steering);
  Buffer.add_string b
    (match config.Plan.acl_algo with
    | None -> "-"
    | Some a -> Lemur_classifier.Classifier.algo_name a);
  Digest.to_hex (Digest.string (Buffer.contents b))

let config_sig config =
  let st = state () in
  let s, entries = lookup ~cap:max_cfg_sigs config_digest config st.cfg_sigs in
  st.cfg_sigs <- entries;
  s

let graph_digest (g : Lemur_spec.Graph.t) =
  let open Lemur_spec in
  let b = Buffer.create 256 in
  List.iter
    (fun (n : Graph.node) ->
      buf_int b n.Graph.id;
      buf_str b n.Graph.instance.Lemur_nf.Instance.name;
      buf_str b (Lemur_nf.Kind.name n.Graph.instance.Lemur_nf.Instance.kind);
      if n.Graph.instance.Lemur_nf.Instance.params <> [] then
        buf_str b
          (Format.asprintf "%a" Lemur_nf.Params.pp
             n.Graph.instance.Lemur_nf.Instance.params))
    (Graph.nodes g);
  Buffer.add_char b '/';
  List.iter
    (fun (e : Graph.edge) ->
      buf_int b e.Graph.src;
      buf_int b e.Graph.dst;
      buf_float b e.Graph.weight;
      List.iter
        (fun (k, v) ->
          buf_str b k;
          buf_str b (Format.asprintf "%a" Lemur_nf.Params.pp_value v))
        e.Graph.conds)
    (Graph.edges g);
  Digest.to_hex (Digest.string (Buffer.contents b))

let graph_sig g =
  let st = state () in
  let s, entries = lookup ~cap:max_graph_sigs graph_digest g st.graph_sigs in
  st.graph_sigs <- entries;
  s

(* The chain id is part of the signature, so two chains share a key only
   when both structure AND name agree — which generated corpora
   satisfy, since chains are named systematically. *)
let chain_sig (input : Plan.chain_input) =
  input.Plan.id ^ "#" ^ graph_sig input.Plan.graph

let loc_char = function
  | Plan.Server -> 's'
  | Plan.Switch -> 'w'
  | Plan.Smartnic -> 'n'
  | Plan.Ofswitch -> 'o'

let locs_string locs =
  let b = Bytes.create (Array.length locs) in
  Array.iteri (fun i l -> Bytes.set b i (loc_char l)) locs;
  Bytes.unsafe_to_string b

let pattern_sig input locs = chain_sig input ^ ":" ^ locs_string locs
let plan_sig plan = pattern_sig plan.Plan.input plan.Plan.locs
