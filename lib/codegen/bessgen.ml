open Lemur_placer
open Lemur_bess

type core = { server : string; core : int; socket : int }

type server_artifact = {
  server : string;
  graph : Module_graph.t;
  scheduler : Scheduler.t;
  script : string;
  generated_lines : int;
}

(* Subgroups of one chain_report hosted on [server]. *)
let subgroups_on report server =
  List.mapi (fun i sg -> (i, sg)) report.Strategy.plan.Plan.subgroups
  |> List.filter (fun (_, sg) ->
         match List.assoc_opt sg.Plan.sg_segment report.Strategy.seg_server with
         | Some s -> String.equal s server
         | None -> false)

let nf_module_id chain_id sg_index instance_index node_name =
  Printf.sprintf "%s_sg%d_i%d_%s" chain_id sg_index instance_index node_name

let replica_cores config reports =
  let next_core = Hashtbl.create 4 in
  List.map
    (fun report ->
      Array.of_list
        (List.mapi
           (fun sg_index sg ->
             let server = List.assoc sg.Plan.sg_segment report.Strategy.seg_server in
             let s = Lemur_topology.Topology.find_server config.Plan.topology server in
             Array.init report.Strategy.cores.(sg_index) (fun _ ->
                 (* core 0 is the reserved demux core *)
                 let core = Option.value (Hashtbl.find_opt next_core server) ~default:1 in
                 Hashtbl.replace next_core server (core + 1);
                 { server; core; socket = core / s.Lemur_platform.Server.cores_per_socket }))
           report.Strategy.plan.Plan.subgroups))
    reports

let generate config reports =
  let servers =
    Lemur_util.Listx.uniq String.equal
      (List.concat_map
         (fun r -> List.map snd r.Strategy.seg_server)
         reports)
  in
  let pinned = replica_cores config reports in
  List.filter_map
    (fun server ->
      let graph = Module_graph.create ~server in
      let scheduler = ref (Scheduler.create ~server) in
      Module_graph.add graph { Module_graph.module_id = "port_inc"; kind = Module_graph.Port_inc };
      Module_graph.add graph { Module_graph.module_id = "nsh_demux"; kind = Module_graph.Nsh_decap };
      Module_graph.add graph { Module_graph.module_id = "port_out"; kind = Module_graph.Port_out };
      Module_graph.connect graph ~src:"port_inc" ~dst:"nsh_demux";
      let placed = ref false in
      List.iter2
        (fun report sg_cores ->
          let chain_id = report.Strategy.plan.Plan.input.Plan.id in
          let t_max = report.Strategy.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_max in
          List.iter
            (fun (sg_index, sg) ->
              placed := true;
              let cores = report.Strategy.cores.(sg_index) in
              let entry =
                (* with Metron-style core tagging the ToR already chose
                   the instance; no software LB module is generated *)
                if cores > 1 && not config.Plan.metron_steering then begin
                  let lb_id = Printf.sprintf "%s_sg%d_lb" chain_id sg_index in
                  Module_graph.add graph
                    { Module_graph.module_id = lb_id; kind = Module_graph.Core_lb { fanout = cores } };
                  lb_id
                end
                else "nsh_demux"
              in
              if not (String.equal entry "nsh_demux") then
                Module_graph.connect graph ~src:"nsh_demux" ~dst:entry;
              let encap_id = Printf.sprintf "%s_sg%d_encap" chain_id sg_index in
              Module_graph.add graph
                {
                  Module_graph.module_id = encap_id;
                  kind = Module_graph.Nsh_encap;
                };
              for instance = 0 to cores - 1 do
                let { core; socket; _ } = sg_cores.(sg_index).(instance) in
                let prev = ref entry in
                List.iter
                  (fun node_id ->
                    let node = Lemur_spec.Graph.node report.Strategy.plan.Plan.input.Plan.graph node_id in
                    let mid =
                      nf_module_id chain_id sg_index instance
                        node.Lemur_spec.Graph.instance.Lemur_nf.Instance.name
                    in
                    Module_graph.add graph
                      {
                        Module_graph.module_id = mid;
                        kind = Module_graph.Nf { instance = node.Lemur_spec.Graph.instance };
                      };
                    Module_graph.connect graph ~src:!prev ~dst:mid;
                    prev := mid)
                  sg.Plan.sg_nodes;
                Module_graph.connect graph ~src:!prev ~dst:encap_id;
                let rate_limit =
                  if t_max < infinity && sg_index = 0 then
                    Some (t_max /. float_of_int cores)
                  else None
                in
                scheduler :=
                  Scheduler.assign !scheduler ~core ~socket
                    ~task:(Printf.sprintf "%s_sg%d_i%d" chain_id sg_index instance)
                    ~chain_id ?rate_limit ()
              done;
              Module_graph.connect graph ~src:encap_id ~dst:"port_out")
            (subgroups_on report server))
        reports pinned;
      if not !placed then None
      else begin
        (* Render the script. *)
        let b = Buffer.create 2048 in
        let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
        line "# BESS configuration for %s generated by the Lemur meta-compiler" server;
        line "port0 = PMDPort(port_id=0)";
        List.iter
          (fun m ->
            match m.Module_graph.kind with
            | Module_graph.Port_inc -> line "%s = PortInc(port=port0)" m.Module_graph.module_id
            | Module_graph.Port_out -> line "%s = PortOut(port=port0)" m.Module_graph.module_id
            | Module_graph.Nsh_decap -> line "%s = NSHdecap()" m.Module_graph.module_id
            | Module_graph.Nsh_encap -> line "%s = NSHencap()" m.Module_graph.module_id
            | Module_graph.Core_lb { fanout } ->
                line "%s = HashLB(mode='l4', gates=%d)" m.Module_graph.module_id fanout
            | Module_graph.Queue { size } ->
                line "%s = Queue(size=%d)" m.Module_graph.module_id size
            | Module_graph.Nf { instance } ->
                line "%s = %s(%s)" m.Module_graph.module_id
                  (Lemur_nf.Kind.name instance.Lemur_nf.Instance.kind)
                  (Format.asprintf "%a" Lemur_nf.Params.pp instance.Lemur_nf.Instance.params))
          (Module_graph.modules graph);
        List.iter
          (fun (src, dst) -> line "%s -> %s" src dst)
          (Module_graph.connections graph);
        List.iter
          (fun (core, task) -> line "bess.attach_task('%s', wid=%d)" task core)
          (Scheduler.leaves !scheduler);
        let script = Buffer.contents b in
        (match Module_graph.validate graph with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Bessgen: invalid module graph: " ^ msg));
        Some
          {
            server;
            graph;
            scheduler = !scheduler;
            script;
            generated_lines =
              String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 script;
          }
      end)
    servers
