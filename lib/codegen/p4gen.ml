open Lemur_placer
open Lemur_nf

type stats = {
  total_lines : int;
  library_lines : int;
  generated_lines : int;
  steering_lines : int;
}

type program = {
  source : string;
  stats : stats;
}

type section = Library | Generated | Steering

type emitter = {
  buf : Buffer.t;
  mutable lib : int;
  mutable gen : int;
  mutable steer : int;
}

let emitter () = { buf = Buffer.create 4096; lib = 0; gen = 0; steer = 0 }

(* Format straight into the buffer, then count the lines just added
   (one, plus any newline inside the formatted text) in place. *)
let emit e section fmt =
  let start = Buffer.length e.buf in
  Printf.kbprintf
    (fun buf ->
      let lines = ref 1 in
      for i = start to Buffer.length buf - 1 do
        if Buffer.nth buf i = '\n' then incr lines
      done;
      (match section with
      | Library -> e.lib <- e.lib + !lines
      | Generated -> e.gen <- e.gen + !lines
      | Steering ->
          e.gen <- e.gen + !lines;
          e.steer <- e.steer + !lines);
      Buffer.add_char buf '\n')
    e.buf fmt

(* ------------------------------------------------------------------ *)
(* Library templates: the standalone P4 NF implementations, mangled per
   instance. Line counts are part of the §5.3 reproduction. *)

let nf_template e ~nf_id kind =
  let t fmt = emit e Library fmt in
  match kind with
  | Kind.Acl ->
      t "/* -- library NF: ACL on src/dst fields (standalone, Lemur P4 dialect) -- */";
      t "counter %s_hits { type : packets_and_bytes; direct : %s_acl; }" nf_id nf_id;
      t "action %s_permit() {" nf_id;
      t "  /* pass to the next NF in the chain (drop_flag untouched) */";
      t "  no_op();";
      t "}";
      t "action %s_deny() {" nf_id;
      t "  modify_field(meta.drop_flag, 1);";
      t "}";
      t "action %s_deny_log(mirror_sess) {" nf_id;
      t "  modify_field(meta.drop_flag, 1);";
      t "  clone_ingress_pkt_to_egress(mirror_sess);";
      t "}";
      t "table %s_acl {" nf_id;
      t "  reads {";
      t "    ipv4.srcAddr : ternary;";
      t "    ipv4.dstAddr : ternary;";
      t "    ipv4.protocol : ternary;";
      t "  }";
      t "  actions { %s_permit; %s_deny; %s_deny_log; }" nf_id nf_id nf_id;
      t "  default_action : %s_permit;" nf_id;
      t "  size : 1024;";
      t "}"
  | Kind.Nat ->
      t "/* -- library NF: carrier-grade NAT (translate + port-state tables) -- */";
      t "action %s_rewrite(saddr, sport) {" nf_id;
      t "  modify_field(ipv4.srcAddr, saddr);";
      t "  modify_field(tcp.srcPort, sport);";
      t "  modify_field(meta.nat_index, sport);";
      t "  /* incremental checksum update, L3 then L4 */";
      t "  modify_field(ipv4.hdrChecksum, csum16_update(ipv4.hdrChecksum, saddr));";
      t "  modify_field(tcp.checksum, csum16_update(tcp.checksum, sport));";
      t "}";
      t "action %s_rewrite_rev(daddr, dport) {" nf_id;
      t "  /* reverse direction: restore the internal endpoint */";
      t "  modify_field(ipv4.dstAddr, daddr);";
      t "  modify_field(tcp.dstPort, dport);";
      t "  modify_field(meta.nat_index, dport);";
      t "}";
      t "action %s_miss() { modify_field(meta.drop_flag, 1); }" nf_id;
      t "table %s_nat_translate {" nf_id;
      t "  reads {";
      t "    ipv4.srcAddr : exact;";
      t "    ipv4.dstAddr : exact;";
      t "    tcp.srcPort : exact;";
      t "    tcp.dstPort : exact;";
      t "  }";
      t "  actions { %s_rewrite; %s_rewrite_rev; %s_miss; }" nf_id nf_id nf_id;
      t "  default_action : %s_miss;" nf_id;
      t "  size : 12000;";
      t "}";
      t "register %s_port_state {" nf_id;
      t "  /* last-seen epoch per translation, for idle-timeout reclaim */";
      t "  width : 8;";
      t "  instance_count : 12000;";
      t "}";
      t "action %s_touch(idx) {" nf_id;
      t "  register_write(%s_port_state, idx, meta.epoch);" nf_id;
      t "}";
      t "table %s_nat_state {" nf_id;
      t "  reads { meta.nat_index : exact; }";
      t "  actions { %s_touch; }" nf_id;
      t "  default_action : %s_touch;" nf_id;
      t "  size : 12000;";
      t "}"
  | Kind.Lb ->
      t "/* -- library NF: L4 load balancer (flow-consistent backend pick) -- */";
      t "field_list %s_flow { ipv4.srcAddr; ipv4.dstAddr; tcp.srcPort; tcp.dstPort; }" nf_id;
      t "field_list_calculation %s_hash {" nf_id;
      t "  input { %s_flow; }" nf_id;
      t "  algorithm : crc16;";
      t "  output_width : 16;";
      t "}";
      t "action %s_pick(backend, mac) {" nf_id;
      t "  modify_field(ipv4.dstAddr, backend);";
      t "  modify_field(ethernet.dstAddr, mac);";
      t "  modify_field(ipv4.hdrChecksum, csum16_update(ipv4.hdrChecksum, backend));";
      t "}";
      t "table %s_lb_select {" nf_id;
      t "  reads { ipv4.dstAddr : exact; tcp.dstPort : exact; }";
      t "  actions { %s_pick; }" nf_id;
      t "  size : 64;";
      t "}"
  | Kind.Bpf ->
      t "/* -- library NF: flexible BPF-style match (classifier) -- */";
      t "action %s_classify(tc) { modify_field(meta.traffic_class, tc); }" nf_id;
      t "action %s_default() { modify_field(meta.traffic_class, 0); }" nf_id;
      t "table %s_bpf_match {" nf_id;
      t "  reads {";
      t "    ipv4.protocol : exact;";
      t "    ipv4.dscp : ternary;";
      t "    tcp.dstPort : ternary;";
      t "  }";
      t "  actions { %s_classify; %s_default; }" nf_id nf_id;
      t "  default_action : %s_default;" nf_id;
      t "  size : 32;";
      t "}"
  | Kind.Tunnel ->
      t "/* -- library NF: VLAN push -- */";
      t "action %s_push(vid, pcp) {" nf_id;
      t "  add_header(vlan);";
      t "  modify_field(vlan.vid, vid);";
      t "  modify_field(vlan.pcp, pcp);";
      t "  modify_field(vlan.etherType, ethernet.etherType);";
      t "  modify_field(ethernet.etherType, 0x8100);";
      t "}";
      t "table %s_vlan_push {" nf_id;
      t "  reads { meta.traffic_class : exact; }";
      t "  actions { %s_push; }" nf_id;
      t "  size : 16;";
      t "}"
  | Kind.Detunnel ->
      t "/* -- library NF: VLAN pop -- */";
      t "action %s_pop() {" nf_id;
      t "  modify_field(ethernet.etherType, vlan.etherType);";
      t "  remove_header(vlan);";
      t "}";
      t "table %s_vlan_pop {" nf_id;
      t "  reads { vlan.vid : exact; }";
      t "  actions { %s_pop; }" nf_id;
      t "  default_action : %s_pop;" nf_id;
      t "  size : 16;";
      t "}"
  | Kind.Ipv4_fwd ->
      t "/* -- library NF: IPv4 forwarding (LPM + TTL) -- */";
      t "action %s_set_port(port, dmac) {" nf_id;
      t "  modify_field(standard_metadata.egress_spec, port);";
      t "  modify_field(ethernet.dstAddr, dmac);";
      t "  add_to_field(ipv4.ttl, -1);";
      t "  modify_field(ipv4.hdrChecksum, csum16_update(ipv4.hdrChecksum, 1));";
      t "}";
      t "action %s_ttl_exceeded() { modify_field(meta.drop_flag, 1); }" nf_id;
      t "table %s_ipv4_lpm {" nf_id;
      t "  reads { ipv4.dstAddr : lpm; }";
      t "  actions { %s_set_port; %s_ttl_exceeded; }" nf_id nf_id;
      t "  size : 512;";
      t "}"
  | _ -> ()

(* ------------------------------------------------------------------ *)

let header_decl e (h : Lemur_p4.P4header.t) =
  emit e Generated "header_type %s_t {" h.Lemur_p4.P4header.header_name;
  emit e Generated "  fields {";
  List.iter
    (fun f ->
      emit e Generated "    %s : %d;" f.Lemur_p4.P4header.field_name
        f.Lemur_p4.P4header.bits)
    h.Lemur_p4.P4header.fields;
  emit e Generated "  }";
  emit e Generated "}";
  emit e Generated "header %s_t %s;" h.Lemur_p4.P4header.header_name
    h.Lemur_p4.P4header.header_name

let parser_decl e (tree : Lemur_p4.Parsetree.t) =
  let open Lemur_p4.Parsetree in
  emit e Generated "parser start { return parse_%s; }" tree.root;
  List.iter
    (fun header ->
      match find_state tree header with
      | None -> emit e Generated "parser parse_%s { extract(%s); return ingress; }" header header
      | Some state ->
          emit e Generated "parser parse_%s {" header;
          emit e Generated "  extract(%s);" header;
          (match state.select_field with
          | None -> emit e Generated "  return ingress;"
          | Some field ->
              emit e Generated "  return select(latest.%s) {" field;
              List.iter
                (fun tr ->
                  match tr.select_value with
                  | Some v -> emit e Generated "    0x%x : parse_%s;" v tr.next
                  | None -> emit e Generated "    default : parse_%s;" tr.next)
                state.transitions;
              emit e Generated "    default : ingress;";
              emit e Generated "  }");
          emit e Generated "}")
    (headers tree)

let generate config spi plans =
  let projections = List.map Plan.switch_projection plans in
  let parser = Lemur_p4.Pipeline.unified_parser projections in
  let e = emitter () in
  emit e Generated "/* Unified P4 program generated by the Lemur meta-compiler. */";
  (* headers *)
  List.iter
    (fun name ->
      match Lemur_p4.P4header.lookup name with
      | Some h -> header_decl e h
      | None -> ())
    (Lemur_p4.Parsetree.headers parser);
  (* metadata *)
  emit e Generated "header_type lemur_meta_t {";
  emit e Generated "  fields { drop_flag : 1; traffic_class : 8; nat_index : 16;";
  emit e Generated "           spi : 24; si : 8; from_server : 1; core_tag : 8; }";
  emit e Generated "}";
  emit e Generated "metadata lemur_meta_t meta;";
  (* unified parser *)
  parser_decl e parser;
  (* NF library instances *)
  List.iter
    (fun proj ->
      List.iter
        (fun node ->
          nf_template e ~nf_id:node.Lemur_p4.Pipeline.nf_id
            node.Lemur_p4.Pipeline.kind)
        proj.Lemur_p4.Pipeline.nf_nodes)
    projections;
  (* Table population from the chain specification's NF parameters:
     ACL(rules=[...]) and friends become const entries. *)
  List.iter
    (fun plan ->
      List.iter
        (fun n ->
          if plan.Plan.locs.(n.Lemur_spec.Graph.id) = Plan.Switch then begin
            let instance = n.Lemur_spec.Graph.instance in
            let nf_id =
              Printf.sprintf "%s_%s" plan.Plan.input.Plan.id
                instance.Lemur_nf.Instance.name
            in
            match
              (instance.Lemur_nf.Instance.kind,
               Lemur_nf.Params.find instance.Lemur_nf.Instance.params "rules")
            with
            | Kind.Acl, Some (Lemur_nf.Params.List rules) ->
                List.iteri
                  (fun i rule ->
                    match rule with
                    | Lemur_nf.Params.Dict fields ->
                        let dst =
                          match List.assoc_opt "dst_ip" fields with
                          | Some (Lemur_nf.Params.Str s) -> s
                          | _ -> "0.0.0.0/0"
                        in
                        let drop =
                          match List.assoc_opt "drop" fields with
                          | Some (Lemur_nf.Params.Bool b) -> b
                          | _ -> false
                        in
                        emit e Steering
                          "  /* rule */ add %s_acl entry %d: dst %s -> %s;"
                          nf_id i dst
                          (if drop then nf_id ^ "_deny" else nf_id ^ "_permit")
                    | _ -> ())
                  rules
            | _ -> ()
          end)
        (Lemur_spec.Graph.nodes plan.Plan.input.Plan.graph))
    plans;
  (* NSH encap/decap + steering glue *)
  let any_crosses =
    List.exists (fun p -> p.Lemur_p4.Pipeline.crosses_platform) projections
  in
  if any_crosses then begin
    emit e Generated "action nsh_decap_act() { remove_header(nsh); modify_field(meta.from_server, 1); }";
    emit e Generated "table nsh_decap { reads { nsh.spi : exact; } actions { nsh_decap_act; } }";
    emit e Generated "action nsh_encap_act(spi, si) {";
    emit e Generated "  add_header(nsh); modify_field(nsh.spi, spi); modify_field(nsh.si, si);";
    emit e Generated "}";
    emit e Generated "table nsh_encap { reads { meta.spi : exact; } actions { nsh_encap_act; } }"
  end;
  (if config.Plan.metron_steering then begin
     (* Metron-style extension: the steering action also tags the target
        core so the server NIC can RSS straight to it, bypassing the
        software demultiplexer's balancing work. *)
     emit e Generated "action steer(spi, si, port, core) {";
     emit e Generated "  modify_field(meta.spi, spi); modify_field(meta.si, si);";
     emit e Generated "  modify_field(meta.core_tag, core);";
     emit e Generated "  modify_field(standard_metadata.egress_spec, port);";
     emit e Generated "}"
   end
   else begin
     emit e Generated "action steer(spi, si, port) {";
     emit e Generated "  modify_field(meta.spi, spi); modify_field(meta.si, si);";
     emit e Generated "  modify_field(standard_metadata.egress_spec, port);";
     emit e Generated "}"
   end);
  emit e Generated "table ingress_steering {";
  emit e Generated "  reads { meta.spi : exact; meta.si : exact; meta.from_server : exact; }";
  emit e Generated "  actions { steer; }";
  (* Steering entries: the shared table classifies fresh traffic into
     its service path, advances the SI at every hop, and re-steers
     packets returning from servers / the SmartNIC / the OpenFlow switch
     (optimization (c): one table covers all three roles). One entry per
     (service path, hop) plus one ingress-classification entry per
     path. *)
  List.iter
    (fun proj ->
      let plan =
        List.find
          (fun pl -> String.equal pl.Plan.input.Plan.id proj.Lemur_p4.Pipeline.chain_id)
          plans
      in
      List.iter
        (fun path ->
          let len = List.length path.Spi.nodes in
          emit e Steering
            "  /* entry */ classify (aggregate=%s/path%d) -> steer(%d, %d, pipeline);"
            proj.Lemur_p4.Pipeline.chain_id path.Spi.spi path.Spi.spi len;
          List.iteri
            (fun i node_id ->
              let si = len - i in
              let port =
                match plan.Plan.locs.(node_id) with
                | Plan.Switch -> "pipeline"
                | Plan.Server -> "server_port"
                | Plan.Smartnic -> "nic_port"
                | Plan.Ofswitch -> "ofswitch_port"
              in
              emit e Steering
                "  /* entry */ set (spi=%d, si=%d) -> steer(%d, %d, %s);"
                path.Spi.spi si path.Spi.spi (si - 1) port)
            path.Spi.nodes;
          emit e Steering
            "  /* entry */ set (spi=%d, si=0) -> steer(0, 0, egress_port);"
            path.Spi.spi)
        (Spi.paths_of_chain spi proj.Lemur_p4.Pipeline.chain_id))
    projections;
  emit e Generated "}";
  (* branch split tables + control flow *)
  let graph =
    Lemur_p4.Pipeline.table_graph ~mode:Lemur_p4.Pipeline.Optimized projections
  in
  let packed =
    Lemur_p4.Stagepack.pack
      ~capacity:
        config.Plan.topology.Lemur_topology.Topology.tor
          .Lemur_platform.Pisa.tables_per_stage
      graph
  in
  emit e Generated "control ingress {";
  emit e Generated "  apply(ingress_steering);";
  if any_crosses then emit e Generated "  apply(nsh_decap);";
  (* apply tables stage by stage; tables owned by branch arms guarded by
     the traffic class set by the split table *)
  let by_stage = Hashtbl.create 16 in
  List.iter
    (fun (name, stage) ->
      Hashtbl.replace by_stage stage
        (name :: Option.value (Hashtbl.find_opt by_stage stage) ~default:[]))
    packed.Lemur_p4.Stagepack.stage_of_table;
  let stages = packed.Lemur_p4.Stagepack.stages_used in
  for stage = 0 to stages - 1 do
    let tables = List.rev (Option.value (Hashtbl.find_opt by_stage stage) ~default:[]) in
    List.iter
      (fun name ->
        if
          (not (String.equal name "ingress_steering"))
          && (not (String.equal name "nsh_decap"))
          && not (String.equal name "nsh_encap")
        then
          if String.length name > 6 && String.sub name (String.length name - 6) 6 = "_split"
          then begin
            emit e Generated "  /* branch: exclusive arms may share stages */";
            emit e Generated "  apply(%s);" name
          end
          else emit e Generated "  if (meta.drop_flag == 0) { apply(%s); }" name)
      tables
  done;
  if any_crosses then emit e Generated "  apply(nsh_encap);";
  emit e Generated "}";
  let source = Buffer.contents e.buf in
  {
    source;
    stats =
      {
        total_lines = e.lib + e.gen;
        library_lines = e.lib;
        generated_lines = e.gen;
        steering_lines = e.steer;
      };
  }
