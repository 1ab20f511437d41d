open Lemur_placer

type event =
  | Slo_changed of { chain_id : string; slo : Lemur_slo.Slo.t }
  | Chain_added of Plan.chain_input
  | Chain_removed of string

let inputs_of (d : Deployment.t) =
  List.map
    (fun r -> r.Strategy.plan.Plan.input)
    d.Deployment.placement.Strategy.chain_reports

(* Pure chain-set edit — the validation half of [apply], shared with the
   batched path and the runtime engine so all report the same per-event
   errors. *)
let update_inputs inputs event =
  let known id = List.exists (fun i -> String.equal i.Plan.id id) inputs in
  match event with
  | Slo_changed { chain_id; slo } ->
      if not (known chain_id) then Error (Printf.sprintf "unknown chain %S" chain_id)
      else
        Ok
          (List.map
             (fun i ->
               if String.equal i.Plan.id chain_id then { i with Plan.slo } else i)
             inputs)
  | Chain_added input ->
      if known input.Plan.id then
        Error (Printf.sprintf "chain %S already deployed" input.Plan.id)
      else Ok (inputs @ [ input ])
  | Chain_removed chain_id ->
      if not (known chain_id) then Error (Printf.sprintf "unknown chain %S" chain_id)
      else
        let rest =
          List.filter (fun i -> not (String.equal i.Plan.id chain_id)) inputs
        in
        if rest = [] then Error "cannot remove the last chain" else Ok rest

let event_label = function
  | Slo_changed { chain_id; _ } -> "slo change for " ^ chain_id
  | Chain_added input -> "add of " ^ input.Plan.id
  | Chain_removed chain_id -> "removal of " ^ chain_id

let apply d event =
  Result.bind
    (update_inputs (inputs_of d) event)
    (fun inputs -> Deployment.deploy d.Deployment.config inputs)

let apply_batch d events =
  let final =
    List.fold_left
      (fun acc (idx, ev) ->
        Result.bind acc (fun inputs ->
            Result.map_error
              (fun e -> Printf.sprintf "event %d (%s): %s" idx (event_label ev) e)
              (update_inputs inputs ev)))
      (Ok (inputs_of d))
      (List.mapi (fun i ev -> (i + 1, ev)) events)
  in
  Result.bind final (fun inputs -> Deployment.deploy d.Deployment.config inputs)

module Schedule = struct
  type window = { label : string; slos : (string * Lemur_slo.Slo.t) list }

  type t = (string * Deployment.t) list

  let precompute config inputs windows =
    let place window =
      let adjusted =
        List.map
          (fun i ->
            match List.assoc_opt i.Plan.id window.slos with
            | Some slo -> { i with Plan.slo }
            | None -> i)
          inputs
      in
      match Deployment.deploy config adjusted with
      | Ok d -> Ok (window.label, d)
      | Error e -> Error (Printf.sprintf "window %s: %s" window.label e)
    in
    List.fold_left
      (fun acc w ->
        Result.bind acc (fun schedule ->
            Result.map (fun entry -> schedule @ [ entry ]) (place w)))
      (Ok []) windows

  let deployment t label = List.assoc_opt label t
  let labels t = List.map fst t
end
