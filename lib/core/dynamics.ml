open Lemur_placer

type event =
  | Slo_changed of { chain_id : string; slo : Lemur_slo.Slo.t }
  | Chain_added of Plan.chain_input
  | Chain_removed of string

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
