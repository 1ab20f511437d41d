open Lemur_topology

type failure =
  | Pisa_failed
  | Smartnic_failed
  | Ofswitch_failed
  | Server_failed of string

let to_string = function
  | Pisa_failed -> "pisa"
  | Smartnic_failed -> "smartnic"
  | Ofswitch_failed -> "ofswitch"
  | Server_failed s -> s

let of_string s =
  match String.lowercase_ascii s with
  | "pisa" -> Ok Pisa_failed
  | "smartnic" -> Ok Smartnic_failed
  | "ofswitch" -> Ok Ofswitch_failed
  | other when String.length other > 6 && String.sub other 0 6 = "server" ->
      Ok (Server_failed other)
  | other -> Error (Printf.sprintf "unknown element %S" other)

let pp_failure ppf = function
  | Pisa_failed -> Format.pp_print_string ppf "PISA pipeline failed"
  | Smartnic_failed -> Format.pp_print_string ppf "SmartNIC failed"
  | Ofswitch_failed -> Format.pp_print_string ppf "OpenFlow switch failed"
  | Server_failed s -> Format.fprintf ppf "server %s failed" s

let degrade topo failure =
  match failure with
  | Pisa_failed ->
      if topo.Topology.tor.Lemur_platform.Pisa.stages = 0 then
        Error "the ToR pipeline is already unusable"
      else
        Ok
          {
            topo with
            Topology.tor = { topo.Topology.tor with Lemur_platform.Pisa.stages = 0 };
          }
  | Smartnic_failed ->
      if topo.Topology.smartnics = [] then Error "no SmartNIC in the rack"
      else Ok { topo with Topology.smartnics = [] }
  | Ofswitch_failed ->
      if topo.Topology.ofswitch = None then Error "no OpenFlow switch in the rack"
      else Ok { topo with Topology.ofswitch = None }
  | Server_failed name ->
      if not (List.exists (fun s -> String.equal s.Lemur_platform.Server.name name)
                topo.Topology.servers)
      then Error (Printf.sprintf "no server %S in the rack" name)
      else
        let rest =
          List.filter
            (fun s -> not (String.equal s.Lemur_platform.Server.name name))
            topo.Topology.servers
        in
        if rest = [] then Error "the last server failed: no software fallback left"
        else
          Ok
            {
              topo with
              Topology.servers = rest;
              smartnics =
                List.filter
                  (fun n -> not (String.equal n.Lemur_platform.Smartnic.host name))
                  topo.Topology.smartnics;
            }
