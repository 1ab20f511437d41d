open Lemur_placer

type config = {
  policy : Policy.t;
  seed : int;
  sample : float;
  check : (Lemur.Deployment.t -> (unit, string) result) option;
  incremental : bool;
  move_budget : int option;
}

let default_config ?(policy = Policy.Immediate) ?(seed = 11) ?(sample = 1e7)
    ?check ?(incremental = true) ?move_budget () =
  { policy; seed; sample; check; incremental; move_budget }

type error =
  | Trace_invalid of string
  | Initial_infeasible of string
  | Oracle_rejected of { at : float; reason : string }

let error_to_string = function
  | Trace_invalid e -> "invalid trace: " ^ e
  | Initial_infeasible e -> "initial placement infeasible: " ^ e
  | Oracle_rejected { at; reason } ->
      Printf.sprintf "oracle rejected deployment at %.3fs: %s" at reason

(* What one event did to the run: carry on, stop legally (a mandatory
   re-placement found no feasible deployment), or stop on an oracle
   rejection. *)
type outcome =
  | Continue
  | Abort of { at : float; reason : string }
  | Oracle_rejection of { at : float; reason : string }

(* Per-chain controller model: the contract is what the operator signed,
   the demand is the last observed offered rate. The deployed SLO is
   derived from both (plus the active window) at each re-placement. *)
type chain_state = {
  graph : Lemur_spec.Graph.t;
  mutable contract : Lemur_slo.Slo.t;
  mutable demand : float option;
  forecaster : Forecast.t option;  (** Some only under [Policy.Proactive] *)
}

type compliance_acc = {
  mutable thr_s : float;
  mutable lat_s : float;
  mutable marginal : float;
  mutable delivered : float;
}

(* Does the current placement put anything on the failed element? If
   not, the deployment keeps operating and re-placement is deferrable. *)
let failure_used (d : Lemur.Deployment.t) topo failure =
  let reports = d.Lemur.Deployment.placement.Strategy.chain_reports in
  let any p = List.exists p reports in
  let uses_smartnic =
    any (fun r -> r.Strategy.plan.Plan.smartnic_nodes <> [])
  in
  match failure with
  | Lemur.Failover.Pisa_failed ->
      any (fun r ->
          Array.exists (fun l -> l = Plan.Switch) r.Strategy.plan.Plan.locs)
  | Lemur.Failover.Smartnic_failed -> uses_smartnic
  | Lemur.Failover.Ofswitch_failed ->
      any (fun r -> r.Strategy.plan.Plan.ofswitch_nodes <> [])
  | Lemur.Failover.Server_failed name ->
      any (fun r ->
          List.exists (fun (_, s) -> String.equal s name) r.Strategy.seg_server)
      || uses_smartnic
         && List.exists
              (fun n -> String.equal n.Lemur_platform.Smartnic.host name)
              topo.Lemur_topology.Topology.smartnics

(* What the orchestration layer would have to migrate between two
   deployments: a chain "moves" when it exists in both and its placement
   signature — node locations plus segment-to-server homes — changed.
   Added/removed chains are not moves (there is nothing to migrate). *)
let placement_sigs (d : Lemur.Deployment.t) =
  List.map
    (fun (r : Strategy.chain_report) ->
      ( r.Strategy.plan.Plan.input.Plan.id,
        (r.Strategy.plan.Plan.locs, r.Strategy.seg_server) ))
    d.Lemur.Deployment.placement.Strategy.chain_reports

let moved_chains ~before ~after =
  let sigs0 = placement_sigs before in
  List.filter_map
    (fun (id, s) ->
      match List.assoc_opt id sigs0 with
      | Some s0 when s0 = s -> None
      | Some _ -> Some id
      | None -> None)
    (placement_sigs after)

(* ------------------------------------------------------------------ *)
(* Meters: what the run records about its own decisions. They exist
   before the first deployment does, so the initial placement is timed
   and dirty-tracked like every later one. *)

type solve_key = string * Lemur_spec.Graph.t * float

type meters = {
  c_events : Lemur_telemetry.Counter.t;
  c_rejected : Lemur_telemetry.Counter.t;
  c_reconfigs : Lemur_telemetry.Counter.t;
  c_epochs : Lemur_telemetry.Counter.t;
  c_violations : Lemur_telemetry.Counter.t;
  h_decision : Lemur_telemetry.Histogram.t;
  c_deploy_errors : Lemur_telemetry.Counter.t;
  c_dirty_chains : Lemur_telemetry.Counter.t;
  c_clean_chains : Lemur_telemetry.Counter.t;
  c_warm_starts : Lemur_telemetry.Counter.t;
  c_moves : Lemur_telemetry.Counter.t;
  c_moves_capped : Lemur_telemetry.Counter.t;
  mutable latencies : float list;  (** decision latencies, newest first *)
  mutable last_solved : (Plan.config * solve_key list) option;
}

let meters () =
  let tele = Lemur_telemetry.Telemetry.current () in
  let counter = Lemur_telemetry.Telemetry.counter tele in
  {
    c_events = counter "runtime.events";
    c_rejected = counter "runtime.events.rejected";
    c_reconfigs = counter "runtime.reconfigs";
    c_epochs = counter "runtime.epochs";
    c_violations = counter "runtime.violations";
    h_decision =
      Lemur_telemetry.Telemetry.histogram tele "runtime.decision_latency_ns";
    c_deploy_errors = counter "runtime.deploy_errors";
    c_dirty_chains = counter "runtime.replace.dirty_chains";
    c_clean_chains = counter "runtime.replace.clean_chains";
    c_warm_starts = counter "runtime.replace.warm_starts";
    c_moves = counter "runtime.replace.moves";
    c_moves_capped = counter "runtime.replace.moves_capped";
    latencies = [];
    last_solved = None;
  }

(* A placement call must never kill the trace: an escaped exception
   (a solver bug exposed mid-flight) is demoted to an [Error], which
   the caller then treats exactly like an infeasible placement —
   mandatory triggers abort the run legally, deferrable ones journal
   the failure and keep operating the current deployment. *)
let guarded m f =
  match f () with
  | r -> r
  | exception exn ->
      Lemur_telemetry.Counter.incr m.c_deploy_errors;
      Error ("placement crashed: " ^ Printexc.to_string exn)

let timed m f =
  let t0 = Lemur_util.Timing.now () in
  let r = f () in
  let dt = Lemur_util.Timing.elapsed t0 in
  m.latencies <- dt :: m.latencies;
  Lemur_telemetry.Histogram.record m.h_decision (dt *. 1e9);
  r

(* With [incremental] off every placement starts cold: the variant
   cache and the signature caches behind its keys are dropped inside
   the timed section, so the decision latency pays for recomputing
   what the incremental path would have reused. This is the
   from-scratch baseline the runtime bench compares against; verdicts
   are unaffected either way because cache hits are byte-identical to
   recomputation. *)
let fresh cfg =
  if not cfg.incremental then begin
    Memo.clear ();
    Strategy.clear_variant_cache ()
  end

(* Dirty-set bookkeeping: a chain is dirty when its structural
   solve key — (graph, t_min) under the current config — differs
   from the last solved placement's; demand events only move
   t_max, so they leave every chain clean and the variant cache
   serves the whole pattern search as a warm start. *)
let note_dirty m config (inputs : Plan.chain_input list) =
  (match m.last_solved with
  | Some (config0, keys0) when config0 == config ->
      List.iter
        (fun (i : Plan.chain_input) ->
          match
            List.find_opt (fun (id0, _, _) -> String.equal id0 i.Plan.id) keys0
          with
          | Some (_, g0, t0)
            when g0 == i.Plan.graph && t0 = i.Plan.slo.Lemur_slo.Slo.t_min ->
              Lemur_telemetry.Counter.incr m.c_clean_chains
          | _ -> Lemur_telemetry.Counter.incr m.c_dirty_chains)
        inputs
  | _ ->
      Lemur_telemetry.Counter.incr ~by:(List.length inputs) m.c_dirty_chains);
  m.last_solved <-
    Some
      ( config,
        List.map
          (fun (i : Plan.chain_input) ->
            (i.Plan.id, i.Plan.graph, i.Plan.slo.Lemur_slo.Slo.t_min))
          inputs )

(* ------------------------------------------------------------------ *)
(* Controller state *)

type state = {
  cfg : config;
  trace : Trace.t;
  m : meters;
  prng : Lemur_util.Prng.t;  (** epoch sample seeds *)
  proactive : (float * Forecast.model * float) option;
      (** [(horizon_s, model, headroom)] under [Policy.Proactive] *)
  pstate : Policy.state;
  pristine : Lemur_topology.Topology.t;  (** the rack before any failure *)
  mutable chains : (string * chain_state) list;
  mutable config : Plan.config;  (** the live rack *)
  mutable failed : Lemur.Failover.failure list;
  mutable window : string option;
  mutable schedule : (string * Lemur.Deployment.t) list option;
      (** one precomputed placement per window label *)
  mutable now : float;
  mutable deployment : Lemur.Deployment.t;
  (* Accumulators *)
  mutable journal : Report.journal_entry list;  (** newest first *)
  mutable applied : int;
  mutable rejected : int;
  mutable epochs : int;
  mutable reconfigs : int;
  mutable moves_total : int;
  mutable moves_capped : int;
  reasons : (string, int) Hashtbl.t;
  compliance : (string, compliance_acc) Hashtbl.t;
}

let new_chain st graph contract =
  {
    graph;
    contract;
    demand = None;
    forecaster =
      Option.map (fun (_, model, _) -> Forecast.create model) st.proactive;
  }

let journal st e = st.journal <- e :: st.journal

let mark_applied st at action =
  st.applied <- st.applied + 1;
  Lemur_telemetry.Counter.incr st.m.c_events;
  journal st
    (Report.Applied { at; what = Format.asprintf "%a" Trace.pp_action action })

(* Refuse an event the controller model cannot apply; the run goes on. *)
let reject st at action reason =
  st.rejected <- st.rejected + 1;
  Lemur_telemetry.Counter.incr st.m.c_rejected;
  journal st
    (Report.Rejected
       { at; what = Format.asprintf "%a" Trace.pp_action action; reason });
  Continue

(* A failed deferrable re-placement: the old deployment stays. *)
let infeasible st at reason =
  journal st (Report.Infeasible { at; reason });
  Continue

let effective_slo st id (c : chain_state) =
  let slo =
    match st.window with
    | None -> c.contract
    | Some label -> (
        match
          Option.bind
            (List.assoc_opt label st.trace.Trace.windows)
            (List.assoc_opt id)
        with
        | Some s -> s
        | None -> c.contract)
  in
  match c.demand with
  | None -> slo
  | Some r ->
      (* Under a proactive policy the cap provisions for where
         demand is headed, not just where it was last seen. *)
      let r =
        match (st.proactive, c.forecaster) with
        | Some (horizon_s, _, headroom), Some f
          when Forecast.observations f >= 2 ->
            Float.max r (Forecast.predict f ~horizon_s *. (1.0 +. headroom))
        | _ -> r
      in
      (* never below t_min (the contract stands), never a
         degenerate 0 ceiling when the chain idles *)
      let cap = Float.max 1e6 (Float.max r slo.Lemur_slo.Slo.t_min) in
      { slo with Lemur_slo.Slo.t_max = Float.min slo.Lemur_slo.Slo.t_max cap }

let effective_inputs st =
  List.map
    (fun (id, c) -> { Plan.id; graph = c.graph; slo = effective_slo st id c })
    st.chains

let contract_inputs st =
  List.map
    (fun (id, c) -> { Plan.id; graph = c.graph; slo = c.contract })
    st.chains

let oracle st at (d : Lemur.Deployment.t) =
  match st.cfg.check with
  | None -> Continue
  | Some check -> (
      match check d with
      | Ok () -> Continue
      | Error reason -> Oracle_rejection { at; reason }
      | exception exn ->
          (* A crashing hook cannot vouch for the deployment:
             treat it as a rejection, not a process abort. *)
          Lemur_telemetry.Counter.incr st.m.c_deploy_errors;
          Oracle_rejection
            { at; reason = "check hook raised: " ^ Printexc.to_string exn })

(* ------------------------------------------------------------------ *)
(* Re-placement *)

(* Oracle-check [d], then make it the live deployment. *)
let install st ~at ~reason ~moves ~capped ~exempt (d : Lemur.Deployment.t) =
  match oracle st at d with
  | Continue ->
      st.deployment <- d;
      st.reconfigs <- st.reconfigs + 1;
      Lemur_telemetry.Counter.incr st.m.c_reconfigs;
      Lemur_telemetry.Counter.incr ~by:moves st.m.c_moves;
      if not exempt then st.moves_total <- st.moves_total + moves;
      if capped then begin
        st.moves_capped <- st.moves_capped + 1;
        Lemur_telemetry.Counter.incr st.m.c_moves_capped
      end;
      Hashtbl.replace st.reasons reason
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.reasons reason));
      journal st
        (Report.Reconfigured
           {
             at;
             reason;
             chains =
               List.length d.Lemur.Deployment.placement.Strategy.chain_reports;
             predicted_rate = d.Lemur.Deployment.placement.Strategy.total_rate;
             moves;
             capped;
             exempt;
           });
      Policy.note_reconfig st.pstate ~now:at;
      Continue
  | stop -> stop

(* Move-budgeted hybrid: keep at most [budget] of the moves the
   unconstrained placement wanted — the structurally dirty chains first,
   then the largest allocation swings — and freeze every other mover at
   its old locations (re-elaborated under the current config and SLOs),
   then redo core allocation + rate LP over the mixed plan set. *)
let hybrid_deployment st ~proposed ~moved ~budget inputs =
  let report_of (d : Lemur.Deployment.t) id =
    List.find_opt
      (fun (r : Strategy.chain_report) ->
        String.equal r.Strategy.plan.Plan.input.Plan.id id)
      d.Lemur.Deployment.placement.Strategy.chain_reports
  in
  let before = st.deployment in
  let structurally_dirty id =
    match
      ( report_of before id,
        List.find_opt
          (fun (i : Plan.chain_input) -> String.equal i.Plan.id id)
          inputs )
    with
    | Some r0, Some i ->
        (not (r0.Strategy.plan.Plan.input.Plan.graph == i.Plan.graph))
        || r0.Strategy.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_min
           <> i.Plan.slo.Lemur_slo.Slo.t_min
    | _ -> true
  in
  let rate_delta id =
    match (report_of before id, report_of proposed id) with
    | Some a, Some b -> Float.abs (b.Strategy.rate -. a.Strategy.rate)
    | _ -> infinity
  in
  let ranked =
    List.sort
      (fun a b ->
        match compare (structurally_dirty b) (structurally_dirty a) with
        | 0 -> (
            match compare (rate_delta b) (rate_delta a) with
            | 0 -> String.compare a b
            | c -> c)
        | c -> c)
      moved
  in
  let allowed = List.filteri (fun i _ -> i < budget) ranked in
  let frozen id =
    List.exists (String.equal id) moved
    && not (List.exists (String.equal id) allowed)
  in
  match
    List.map
      (fun (i : Plan.chain_input) ->
        if frozen i.Plan.id then
          match report_of before i.Plan.id with
          | Some r0 -> Plan.elaborate st.config i r0.Strategy.plan.Plan.locs
          | None -> failwith ("no old placement for " ^ i.Plan.id)
        else
          match report_of proposed i.Plan.id with
          | Some r -> r.Strategy.plan
          | None -> failwith ("no proposed placement for " ^ i.Plan.id))
      inputs
  with
  | exception exn ->
      Error
        ("frozen chains cannot keep their placement: "
        ^ Printexc.to_string exn)
  | plans -> (
      match Strategy.evaluate_plans Strategy.Lemur st.config plans with
      | Strategy.Placed best -> Lemur.Deployment.of_placement st.config best
      | Strategy.Infeasible _ ->
          Error
            "no feasible core/rate allocation keeps the frozen chains in place")

(* The proposed placement re-homes more than [budget] chains: install
   the hybrid if it respects the budget, else keep the old deployment. *)
let within_budget st ~at ~reason ~proposed ~moved ~budget inputs =
  match
    guarded st.m (fun () ->
        hybrid_deployment st ~proposed ~moved ~budget inputs)
  with
  | Ok d ->
      let moves = List.length (moved_chains ~before:st.deployment ~after:d) in
      if moves <= budget then
        install st ~at ~reason ~moves ~capped:true ~exempt:false d
      else
        infeasible st at
          (Printf.sprintf "%s: move budget %d exceeded (hybrid still moves %d)"
             reason budget moves)
  | Error e ->
      infeasible st at
        (Printf.sprintf "%s: move budget %d exceeded (%d moves wanted; %s)"
           reason budget (List.length moved) e)

let reconfigure st ~at ~mandatory ~reason =
  let vc_hits0 = fst (Strategy.variant_cache_stats ()) in
  let result =
    timed st.m (fun () ->
        fresh st.cfg;
        let inputs = effective_inputs st in
        note_dirty st.m st.config inputs;
        Result.map
          (fun d -> (d, inputs))
          (guarded st.m (fun () -> Lemur.Deployment.deploy st.config inputs)))
  in
  if fst (Strategy.variant_cache_stats ()) > vc_hits0 then
    Lemur_telemetry.Counter.incr st.m.c_warm_starts;
  match result with
  | Ok (d, inputs) -> (
      let moved = moved_chains ~before:st.deployment ~after:d in
      match st.cfg.move_budget with
      | Some budget when (not mandatory) && List.length moved > budget ->
          within_budget st ~at ~reason ~proposed:d ~moved ~budget inputs
      | _ ->
          install st ~at ~reason ~moves:(List.length moved) ~capped:false
            ~exempt:mandatory d)
  | Error e when mandatory ->
      Abort { at; reason = Printf.sprintf "%s: %s" reason e }
  | Error e -> infeasible st at (reason ^ ": " ^ e)

let consider st ~at ~trigger ~reason =
  if Policy.decide st.cfg.policy st.pstate ~now:at trigger then
    reconfigure st ~at ~mandatory:(trigger = Policy.Mandatory) ~reason
  else begin
    journal st (Report.Deferred { at; trigger = Policy.trigger_name trigger });
    Continue
  end

(* Place every window's contract up front, in trace order (§7: "Lemur
   can precompute chain placements for those SLOs and install them
   accordingly"); [Error] names the first infeasible window. *)
let precompute_windows st =
  let inputs = contract_inputs st in
  List.fold_left
    (fun acc (label, slos) ->
      Result.bind acc (fun schedule ->
          let adjusted =
            List.map
              (fun (i : Plan.chain_input) ->
                match List.assoc_opt i.Plan.id slos with
                | Some slo -> { i with Plan.slo }
                | None -> i)
              inputs
          in
          match Lemur.Deployment.deploy st.config adjusted with
          | Ok d -> Ok (schedule @ [ (label, d) ])
          | Error e -> Error (Printf.sprintf "window %s: %s" label e)))
    (Ok []) st.trace.Trace.windows

(* Install a precomputed per-window placement (§7 time-varying SLOs) —
   the Scheduled policy's only voluntary reconfiguration path. *)
let install_window st ~at label =
  let sched =
    match st.schedule with
    | Some s -> Ok s
    | None ->
        timed st.m (fun () ->
            fresh st.cfg;
            Result.map
              (fun s ->
                st.schedule <- Some s;
                s)
              (guarded st.m (fun () -> precompute_windows st)))
  in
  match sched with
  | Error e -> infeasible st at ("schedule: " ^ e)
  | Ok s -> (
      match List.assoc_opt label s with
      | None ->
          infeasible st at (Printf.sprintf "window %s not in schedule" label)
      | Some d ->
          let moves =
            List.length (moved_chains ~before:st.deployment ~after:d)
          in
          install st ~at ~reason:"window-install" ~moves ~capped:false
            ~exempt:true d)

(* ------------------------------------------------------------------ *)
(* Measurement *)

(* Proactive alarm: would the live deployment's allocation to any chain
   fall short, by the verdict's throughput floor, of the chain's forecast
   inflated by the headroom, were that forecast offered as its floor? If
   so the monitor is about to start charging violation-seconds — act
   now, before an epoch observes the shortfall. *)
let forecast_alarm st =
  match st.proactive with
  | None -> false
  | Some (horizon_s, _, headroom) ->
      List.exists
        (fun (id, c) ->
          match c.forecaster with
          | Some f when Forecast.observations f >= 2 -> (
              let rhat = Forecast.predict f ~horizon_s *. (1.0 +. headroom) in
              match
                List.find_opt
                  (fun (r : Strategy.chain_report) ->
                    String.equal r.Strategy.plan.Plan.input.Plan.id id)
                  st.deployment.Lemur.Deployment.placement
                    .Strategy.chain_reports
              with
              | Some r ->
                  r.Strategy.rate
                  < Lemur_slo.Slo.throughput_floor ~slack:0.0
                      (Lemur_slo.Slo.make ~t_min:rhat ())
                      ~offered:rhat
              | None -> rhat > 0.0)
          | _ -> false)
        st.chains

(* Sample the epoch [now, until) on the live deployment and charge each
   chain's verdict, scaled by the epoch length. *)
let sample_epoch st until =
  let len = until -. st.now in
  if len > 1e-12 then begin
    let seed = Lemur_util.Prng.int st.prng 0x3FFFFFFF in
    let demand =
      List.filter_map
        (fun (id, c) -> Option.map (fun r -> (id, r)) c.demand)
        st.chains
    in
    let ep =
      Monitor.observe ~seed ~sample:st.cfg.sample ~demand ~start:st.now ~len
        st.deployment
    in
    st.epochs <- st.epochs + 1;
    Lemur_telemetry.Counter.incr st.m.c_epochs;
    let violated (o : Monitor.chain_obs) kind =
      Lemur_telemetry.Counter.incr st.m.c_violations;
      journal st
        (Report.Violation
           { at = st.now; chain = o.Monitor.co_id; kind; seconds = len })
    in
    List.iter
      (fun (o : Monitor.chain_obs) ->
        let acc =
          match Hashtbl.find_opt st.compliance o.Monitor.co_id with
          | Some a -> a
          | None ->
              let a =
                { thr_s = 0.0; lat_s = 0.0; marginal = 0.0; delivered = 0.0 }
              in
              Hashtbl.add st.compliance o.Monitor.co_id a;
              a
        in
        let v = o.Monitor.co_verdict in
        acc.marginal <- acc.marginal +. (v.Lemur_slo.Slo.marginal *. len);
        acc.delivered <- acc.delivered +. (o.Monitor.co_delivered *. len);
        if not v.Lemur_slo.Slo.throughput_met then begin
          acc.thr_s <- acc.thr_s +. len;
          violated o "throughput"
        end;
        if not v.Lemur_slo.Slo.latency_met then begin
          acc.lat_s <- acc.lat_s +. len;
          violated o "latency"
        end)
      ep.Monitor.ep_obs;
    Policy.note_violation st.pstate ~now:until (Monitor.violation_seconds ep)
  end

(* ------------------------------------------------------------------ *)
(* Events *)

(* An applied event that changed the placement inputs: any precomputed
   window schedule is stale, and the policy gets its say. *)
let restructured st ~at action ~trigger ~reason =
  st.schedule <- None;
  mark_applied st at action;
  consider st ~at ~trigger ~reason

(* SLO edits and chain add/remove share {!Lemur.Dynamics}' chain-set
   validation; surviving chains keep their demand and forecaster. *)
let edit_chains st ~at action edit =
  match
    Result.bind edit (fun ev ->
        Result.map
          (fun inputs -> (ev, inputs))
          (Lemur.Dynamics.update_inputs (contract_inputs st) ev))
  with
  | Error e -> reject st at action e
  | Ok (ev, inputs) ->
      st.chains <-
        List.map
          (fun (i : Plan.chain_input) ->
            match List.assoc_opt i.Plan.id st.chains with
            | Some c ->
                c.contract <- i.Plan.slo;
                (i.Plan.id, c)
            | None -> (i.Plan.id, new_chain st i.Plan.graph i.Plan.slo))
          inputs;
      let trigger, reason =
        match ev with
        | Lemur.Dynamics.Slo_changed _ -> (Policy.Structural, "slo-change")
        | Lemur.Dynamics.Chain_added _ -> (Policy.Mandatory, "chain-added")
        | Lemur.Dynamics.Chain_removed _ -> (Policy.Mandatory, "chain-removed")
      in
      restructured st ~at action ~trigger ~reason

(* A failure or recovery moved the rack to [topology]. *)
let set_rack st ~at action ~failed topology ~trigger ~reason =
  st.failed <- failed;
  st.config <- { st.config with Plan.topology };
  restructured st ~at action ~trigger ~reason

(* One trace event: close the epoch it ends, then apply it to the
   controller model and let the policy react. *)
let step st ({ Trace.at; action } : Trace.event) =
  sample_epoch st at;
  st.now <- at;
  match action with
  | Trace.Traffic { chain_id; rate } -> (
      match List.assoc_opt chain_id st.chains with
      | None -> reject st at action (Printf.sprintf "unknown chain %S" chain_id)
      | Some c ->
          c.demand <- Some rate;
          Option.iter (fun f -> Forecast.observe f ~at rate) c.forecaster;
          mark_applied st at action;
          if forecast_alarm st then
            consider st ~at ~trigger:Policy.Forecast ~reason:"forecast"
          else
            consider st ~at ~trigger:Policy.Traffic_shift
              ~reason:"traffic-shift")
  | Trace.Set_slo _ | Trace.Add_chain _ | Trace.Remove_chain _ -> (
      match Trace.dynamics_event action with
      | Some edit -> edit_chains st ~at action edit
      | None -> assert false (* every chain edit is a dynamics event *))
  | Trace.Fail f -> (
      let topo = st.config.Plan.topology in
      match Lemur.Failover.degrade topo f with
      | Error e -> reject st at action e
      | Ok topo' ->
          let used = failure_used st.deployment topo f in
          set_rack st ~at action ~failed:(f :: st.failed) topo'
            ~trigger:(if used then Policy.Mandatory else Policy.Structural)
            ~reason:"failure")
  | Trace.Recover f -> (
      if not (List.mem f st.failed) then
        reject st at action "element is not failed"
      else
        let remaining = List.filter (fun g -> g <> f) st.failed in
        (* Rebuild the degraded rack from the pristine one so
           recovery order never matters. *)
        match
          List.fold_left
            (fun acc g -> Result.bind acc (fun t -> Lemur.Failover.degrade t g))
            (Ok st.pristine) (List.rev remaining)
        with
        | Error e -> reject st at action ("cannot restore rack: " ^ e)
        | Ok topo' ->
            set_rack st ~at action ~failed:remaining topo'
              ~trigger:Policy.Structural ~reason:"recovery")
  | Trace.Window label -> (
      if not (List.mem_assoc label st.trace.Trace.windows) then
        reject st at action (Printf.sprintf "unknown window %S" label)
      else begin
        st.window <- Some label;
        mark_applied st at action;
        match st.cfg.policy with
        | Policy.Scheduled -> install_window st ~at label
        | _ -> consider st ~at ~trigger:Policy.Structural ~reason:"window"
      end)

(* ------------------------------------------------------------------ *)
(* Run *)

(* Parse the initial chain set and place it. *)
let init cfg (trace : Trace.t) =
  let m = meters () in
  match Trace.initial_inputs trace with
  | Error e -> Error (Trace_invalid e)
  | Ok inputs0 -> (
      let config = Trace.config trace in
      match
        timed m (fun () ->
            fresh cfg;
            note_dirty m config inputs0;
            guarded m (fun () -> Lemur.Deployment.deploy config inputs0))
      with
      | Error e -> Error (Initial_infeasible e)
      | Ok deployment ->
          let st =
            {
              cfg;
              trace;
              m;
              prng = Lemur_util.Prng.create ~seed:cfg.seed;
              proactive =
                (match cfg.policy with
                | Policy.Proactive { horizon_s; model; headroom } ->
                    Some (horizon_s, model, headroom)
                | _ -> None);
              pstate = Policy.initial_state ();
              pristine = config.Plan.topology;
              chains = [];
              config;
              failed = [];
              window = None;
              schedule = None;
              now = 0.0;
              deployment;
              journal = [];
              applied = 0;
              rejected = 0;
              epochs = 0;
              reconfigs = 0;
              moves_total = 0;
              moves_capped = 0;
              reasons = Hashtbl.create 7;
              compliance = Hashtbl.create 7;
            }
          in
          st.chains <-
            List.map
              (fun (i : Plan.chain_input) ->
                (i.Plan.id, new_chain st i.Plan.graph i.Plan.slo))
              inputs0;
          Ok st)

let report st stop =
  let by_key cmp l = List.sort (fun (a, _) (b, _) -> cmp a b) l in
  let chains =
    Hashtbl.fold
      (fun id acc l ->
        {
          Report.cc_id = id;
          cc_throughput_violation_s = acc.thr_s;
          cc_latency_violation_s = acc.lat_s;
          cc_marginal_bits = acc.marginal;
          cc_delivered_bits = acc.delivered;
        }
        :: l)
      st.compliance []
    |> List.sort (fun a b -> String.compare a.Report.cc_id b.Report.cc_id)
  in
  {
    Report.policy = Policy.to_string st.cfg.policy;
    seed = st.cfg.seed;
    horizon = st.trace.Trace.horizon;
    events_applied = st.applied;
    events_rejected = st.rejected;
    epochs = st.epochs;
    reconfigs = st.reconfigs;
    reconfig_reasons =
      Hashtbl.fold (fun r n l -> (r, n) :: l) st.reasons []
      |> by_key String.compare;
    chains;
    total_violation_s =
      List.fold_left
        (fun s c ->
          s +. c.Report.cc_throughput_violation_s
          +. c.Report.cc_latency_violation_s)
        0.0 chains;
    total_marginal_bits =
      List.fold_left (fun s c -> s +. c.Report.cc_marginal_bits) 0.0 chains;
    moves_total = st.moves_total;
    moves_capped = st.moves_capped;
    forecast_mae =
      List.filter_map
        (fun (id, c) ->
          match c.forecaster with
          | Some f when Forecast.observations f >= 2 ->
              Some (id, Forecast.mean_abs_error f)
          | _ -> None)
        st.chains
      |> by_key String.compare;
    decision_latency_s = List.rev st.m.latencies;
    journal = List.rev st.journal;
    stop;
  }

let run cfg (trace : Trace.t) =
  match init cfg trace with
  | Error e -> Error e
  | Ok st -> (
      let outcome =
        List.fold_left
          (fun outcome ev ->
            match outcome with Continue -> step st ev | stop -> stop)
          (oracle st 0.0 st.deployment)
          trace.Trace.events
      in
      match outcome with
      | Continue ->
          sample_epoch st trace.Trace.horizon;
          st.now <- trace.Trace.horizon;
          Ok (report st Report.Completed, st.deployment)
      | Abort { at; reason } ->
          journal st (Report.Infeasible { at; reason });
          Ok (report st (Report.Aborted { at; reason }), st.deployment)
      | Oracle_rejection { at; reason } ->
          Error (Oracle_rejected { at; reason }))
