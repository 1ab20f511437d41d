open Lemur_nf

let supports kind = List.mem Target.P4 (Kind.targets kind)

let require_support kind =
  if not (supports kind) then
    invalid_arg
      (Printf.sprintf "P4nf: %s has no P4 implementation" (Kind.name kind))

let eth_to_ipv4 =
  {
    Parsetree.header = "ethernet";
    select_field = Some "ether_type";
    transitions = [ { Parsetree.select_value = Some 0x0800; next = "ipv4" } ];
  }

let eth_to_vlan_and_ipv4 =
  {
    Parsetree.header = "ethernet";
    select_field = Some "ether_type";
    transitions =
      [
        { Parsetree.select_value = Some 0x8100; next = "vlan" };
        { Parsetree.select_value = Some 0x0800; next = "ipv4" };
      ];
  }

let vlan_to_ipv4 =
  {
    Parsetree.header = "vlan";
    select_field = Some "ether_type";
    transitions = [ { Parsetree.select_value = Some 0x0800; next = "ipv4" } ];
  }

let ipv4_to_l4 =
  {
    Parsetree.header = "ipv4";
    select_field = Some "protocol";
    transitions =
      [
        { Parsetree.select_value = Some 6; next = "tcp" };
        { Parsetree.select_value = Some 17; next = "udp" };
      ];
  }

let parse_tree kind =
  require_support kind;
  match kind with
  | Kind.Acl | Kind.Ipv4_fwd ->
      Parsetree.make ~root:"ethernet" [ eth_to_ipv4 ]
  | Kind.Nat | Kind.Lb | Kind.Bpf ->
      Parsetree.make ~root:"ethernet" [ eth_to_ipv4; ipv4_to_l4 ]
  | Kind.Tunnel ->
      Parsetree.make ~root:"ethernet" [ eth_to_ipv4 ]
  | Kind.Detunnel ->
      Parsetree.make ~root:"ethernet" [ eth_to_vlan_and_ipv4; vlan_to_ipv4 ]
  | Kind.Encrypt | Kind.Decrypt | Kind.Fast_encrypt | Kind.Dedup | Kind.Limiter
  | Kind.Url_filter | Kind.Monitor ->
      assert false (* unreachable: require_support filtered these *)

let nsh_parse_tree =
  Parsetree.make ~root:"ethernet"
    [
      {
        Parsetree.header = "ethernet";
        select_field = Some "ether_type";
        transitions = [ { Parsetree.select_value = Some 0x894F; next = "nsh" } ];
      };
      {
        Parsetree.header = "nsh";
        select_field = Some "next_proto";
        transitions = [ { Parsetree.select_value = Some 0x01; next = "ipv4" } ];
      };
    ]

let table ~nf_id name match_fields action =
  {
    Tablegraph.table_name = Printf.sprintf "%s_%s" nf_id name;
    owner = nf_id;
    match_fields;
    action;
  }

let tables ~nf_id kind =
  require_support kind;
  match kind with
  | Kind.Acl ->
      [ table ~nf_id "acl" [ "ipv4.src_addr"; "ipv4.dst_addr" ] "permit_or_drop" ]
  | Kind.Nat ->
      [
        table ~nf_id "nat_translate"
          [ "ipv4.src_addr"; "ipv4.dst_addr"; "tcp.src_port"; "tcp.dst_port" ]
          "rewrite_addr_port";
        table ~nf_id "nat_state" [ "meta.nat_index" ] "update_port_state";
      ]
  | Kind.Lb ->
      [ table ~nf_id "lb_select" [ "ipv4.dst_addr"; "tcp.dst_port" ] "pick_backend" ]
  | Kind.Bpf ->
      [ table ~nf_id "bpf_match" [ "ipv4.protocol"; "tcp.dst_port" ] "classify" ]
  | Kind.Tunnel ->
      [ table ~nf_id "vlan_push" [ "meta.traffic_class" ] "push_vlan" ]
  | Kind.Detunnel -> [ table ~nf_id "vlan_pop" [ "vlan.vid" ] "pop_vlan" ]
  | Kind.Ipv4_fwd ->
      [ table ~nf_id "ipv4_lpm" [ "ipv4.dst_addr" ] "set_egress_port" ]
  | Kind.Encrypt | Kind.Decrypt | Kind.Fast_encrypt | Kind.Dedup | Kind.Limiter
  | Kind.Url_filter | Kind.Monitor ->
      assert false
