type action =
  | Forward of { port : string }
  | Set_vid of { vid : int }
  | Push_vlan of { vid : int }
  | Pop_vlan
  | Drop
  | Count

type rule = {
  table : Lemur_nf.Kind.t;
  priority : int;
  match_vid : int option;
  match_fields : (string * string) list;
  actions : action list;
}

type program = { switch : string; rules : rule list }

exception Unplaceable of string

module Vlan = struct
  type t = { spi : int; si : int }

  let si_bits = 4
  let vid_bits = 12
  let max_si = (1 lsl si_bits) - 1
  let max_spi = (1 lsl (vid_bits - si_bits)) - 1

  let encode { spi; si } =
    if spi < 0 || spi > max_spi then invalid_arg "Openflow.Vlan.encode: spi";
    if si < 0 || si > max_si then invalid_arg "Openflow.Vlan.encode: si";
    (spi lsl si_bits) lor si

  let decode vid = { spi = vid lsr si_bits; si = vid land max_si }
end

let unplaceable fmt = Format.kasprintf (fun s -> raise (Unplaceable s)) fmt

let check_placeable (switch : Lemur_platform.Ofswitch.t) kinds =
  List.iter
    (fun kind ->
      if not (Lemur_platform.Ofswitch.supports switch kind) then
        unplaceable "%s has no table on %s" (Lemur_nf.Kind.name kind)
          switch.Lemur_platform.Ofswitch.name)
    kinds;
  if not (Lemur_platform.Ofswitch.order_compatible switch kinds) then
    unplaceable "chain order [%s] violates the fixed table order of %s"
      (String.concat "; " (List.map Lemur_nf.Kind.name kinds))
      switch.Lemur_platform.Ofswitch.name

let nf_actions kind =
  match kind with
  | Lemur_nf.Kind.Acl -> [ Drop ]
  | Lemur_nf.Kind.Monitor -> [ Count ]
  | Lemur_nf.Kind.Tunnel -> [ Push_vlan { vid = 0 } ]
  | Lemur_nf.Kind.Detunnel -> [ Pop_vlan ]
  | Lemur_nf.Kind.Ipv4_fwd -> [ Forward { port = "out" } ]
  | _ -> []

let nf_match kind =
  match kind with
  | Lemur_nf.Kind.Acl -> [ ("ipv4.src", "*"); ("ipv4.dst", "*") ]
  | Lemur_nf.Kind.Monitor -> [ ("flow.5tuple", "*") ]
  | Lemur_nf.Kind.Tunnel -> [ ("meta.class", "*") ]
  | Lemur_nf.Kind.Detunnel -> [ ("vlan.vid", "*") ]
  | Lemur_nf.Kind.Ipv4_fwd -> [ ("ipv4.dst", "lpm") ]
  | _ -> []

let steering_rules ~spi ~entry_si kinds =
  (* One rule per NF table: match the current vid, execute the NF, and
     rewrite the vid to the next (SPI, SI-1). The last table forwards to
     the next platform in the service path. *)
  List.mapi
    (fun i kind ->
      let si = entry_si - i in
      let vid = Vlan.encode { spi; si } in
      let next_vid = Vlan.encode { spi; si = si - 1 } in
      {
        table = kind;
        priority = 10;
        match_vid = Some vid;
        match_fields = nf_match kind;
        actions = nf_actions kind @ [ Set_vid { vid = next_vid } ];
      })
    kinds

let compile switch segments =
  let rules =
    List.concat_map
      (fun (spi, entry_si, kinds) ->
        check_placeable switch kinds;
        (* The vid is the steering key: a masked or capped SPI/SI would
           alias another hop's. *)
        let open Vlan in
        if spi > max_spi || entry_si > max_si then
          unplaceable
            "service path %d at SI %d does not fit the VLAN vid (SPI <= %d, SI <= %d)" spi
            entry_si max_spi max_si;
        steering_rules ~spi ~entry_si kinds)
      segments
  in
  let budget = Lemur_platform.Ofswitch.max_steering_entries switch in
  if List.length rules > budget then
    unplaceable "%d steering rules exceed the %d-entry vid budget"
      (List.length rules) budget;
  { switch = switch.Lemur_platform.Ofswitch.name; rules }

let rule_count p = List.length p.rules

let pp_action ppf = function
  | Forward { port } -> Format.fprintf ppf "output:%s" port
  | Set_vid { vid } -> Format.fprintf ppf "set_field:vlan_vid=0x%03x" vid
  | Push_vlan { vid } -> Format.fprintf ppf "push_vlan,set_field:vlan_vid=0x%03x" vid
  | Pop_vlan -> Format.pp_print_string ppf "pop_vlan"
  | Drop -> Format.pp_print_string ppf "drop"
  | Count -> Format.pp_print_string ppf "count"

let pp_rule ppf r =
  Format.fprintf ppf "table=%s priority=%d" (Lemur_nf.Kind.name r.table) r.priority;
  (match r.match_vid with
  | Some vid -> Format.fprintf ppf " vlan_vid=0x%03x" vid
  | None -> ());
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) r.match_fields;
  Format.fprintf ppf " actions=%a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       pp_action)
    r.actions

let pp ppf p =
  Format.fprintf ppf "# OpenFlow rules for %s@." p.switch;
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_rule r) p.rules
