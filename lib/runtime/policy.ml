type t =
  | Immediate
  | Debounced of { budget_s : float; cooldown_s : float }
  | Scheduled
  | Proactive of {
      horizon_s : float;
      model : Forecast.model;
      headroom : float;
    }

let default_debounced = Debounced { budget_s = 0.030; cooldown_s = 0.020 }

let default_proactive =
  Proactive { horizon_s = 0.020; model = Forecast.default_model; headroom = 0.1 }

type trigger = Mandatory | Structural | Traffic_shift | Forecast

(* The debounce accumulator forgets: violations decay with this
   half-life, so a burst of violation-seconds long past cannot trip the
   budget arbitrarily later — only recent, sustained violation does. *)
let violation_half_life_s = 0.2

type state = {
  mutable violation_s : float;
  mutable last_reconfig : float;
  mutable last_violation : float;
}

let initial_state () =
  { violation_s = 0.0; last_reconfig = 0.0; last_violation = 0.0 }

let decayed_violation state ~now =
  if state.violation_s <= 0.0 || now <= state.last_violation then
    state.violation_s
  else
    state.violation_s
    *. (0.5 ** ((now -. state.last_violation) /. violation_half_life_s))

let note_violation state ~now s =
  state.violation_s <- decayed_violation state ~now +. s;
  state.last_violation <- Float.max state.last_violation now

let note_reconfig state ~now =
  state.violation_s <- 0.0;
  state.last_reconfig <- now

let decide t state ~now trigger =
  match (t, trigger) with
  | _, Mandatory -> true
  | Immediate, _ -> true
  | Debounced { budget_s; cooldown_s }, (Structural | Traffic_shift | Forecast)
    ->
      decayed_violation state ~now > budget_s
      && now -. state.last_reconfig >= cooldown_s
  | Proactive _, (Structural | Forecast) -> true
  | Proactive _, Traffic_shift -> false
  | Scheduled, _ -> false

let name = function
  | Immediate -> "immediate"
  | Debounced _ -> "debounced"
  | Scheduled -> "scheduled"
  | Proactive _ -> "proactive"

(* ------------------------------------------------------------------ *)
(* Strict text round-trip: [parse (to_string p) = Ok p], bit-exact.

   Durations print in milliseconds when the ms rendering divides back
   to the identical float, and as an [s]-suffixed seconds value
   otherwise — so every finite nonnegative float round-trips. *)

let fl = Lemur_util.Units.exact_string

let duration_string v_s =
  let ms = v_s *. 1000.0 in
  if Float.is_finite ms && float_of_string (fl ms) /. 1000.0 = v_s then fl ms
  else fl v_s ^ "s"

let duration_of_token tok =
  let len = String.length tok in
  let seconds =
    if len > 1 && tok.[len - 1] = 's' then
      float_of_string_opt (String.sub tok 0 (len - 1))
    else Option.map (fun v -> v /. 1000.0) (float_of_string_opt tok)
  in
  match seconds with
  | Some v when Float.is_finite v && v >= 0.0 -> Some v
  | _ -> None

let to_string = function
  | Immediate -> "immediate"
  | Scheduled -> "scheduled"
  | Debounced { budget_s; cooldown_s } ->
      Printf.sprintf "debounced:%s:%s" (duration_string budget_s)
        (duration_string cooldown_s)
  | Proactive { horizon_s; model; headroom } ->
      Printf.sprintf "proactive:%s:%s:%s" (duration_string horizon_s)
        (Forecast.model_to_string model)
        (fl headroom)

let weight_of_token tok =
  match float_of_string_opt tok with
  | Some v when Forecast.valid_weight v -> Some v
  | _ -> None

let headroom_of_token tok =
  match float_of_string_opt tok with
  | Some v when Float.is_finite v && v >= 0.0 -> Some v
  | _ -> None

let parse s =
  let raw = String.lowercase_ascii (String.trim s) in
  (* Locate any empty component first so a trailing or doubled ':' is a
     positional error, never silently read as a default. *)
  let rec empty_at i start =
    if i > String.length raw then None
    else if i = String.length raw || raw.[i] = ':' then
      if i = start then Some (start + 1) else empty_at (i + 1) (i + 1)
    else empty_at (i + 1) start
  in
  match (if raw = "" then None else empty_at 0 0) with
  | Some col ->
      Error
        (Printf.sprintf
           "empty policy component at column %d of %S (trailing or doubled \
            ':')"
           col s)
  | None -> (
      let err_duration what tok =
        Error
          (Printf.sprintf
             "bad %s %S (milliseconds, or an 's'-suffixed seconds value, \
              expected)"
             what tok)
      in
      let err_weight what tok =
        Error (Printf.sprintf "bad %s %S (a float in (0, 1] expected)" what tok)
      in
      let proactive ?(model = Forecast.default_model) ?(headroom = 0.1) h =
        match duration_of_token h with
        | Some horizon_s -> Ok (Proactive { horizon_s; model; headroom })
        | None -> err_duration "proactive horizon" h
      in
      let with_headroom mk = function
        | None -> mk ()
        | Some tok -> (
            match headroom_of_token tok with
            | Some headroom ->
                Result.map
                  (function
                    | Proactive p -> Proactive { p with headroom }
                    | p -> p)
                  (mk ())
            | None -> err_weight "proactive headroom" tok)
      in
      match String.split_on_char ':' raw with
      | [ "immediate" ] -> Ok Immediate
      | [ "scheduled" ] -> Ok Scheduled
      | [ "debounced" ] -> Ok default_debounced
      | [ "debounced"; budget ] -> (
          match duration_of_token budget with
          | Some budget_s -> Ok (Debounced { budget_s; cooldown_s = 0.020 })
          | None -> err_duration "debounce budget" budget)
      | [ "debounced"; budget; cooldown ] -> (
          match (duration_of_token budget, duration_of_token cooldown) with
          | Some budget_s, Some cooldown_s ->
              Ok (Debounced { budget_s; cooldown_s })
          | None, _ -> err_duration "debounce budget" budget
          | _, None -> err_duration "debounce cooldown" cooldown)
      | [ "proactive" ] -> Ok default_proactive
      | [ "proactive"; h ] -> proactive h
      | "proactive" :: h :: "ewma" :: alpha :: rest
        when List.length rest <= 1 -> (
          match weight_of_token alpha with
          | None -> err_weight "ewma alpha" alpha
          | Some alpha ->
              with_headroom
                (fun () -> proactive ~model:(Forecast.Ewma { alpha }) h)
                (match rest with [] -> None | hd :: _ -> Some hd))
      | "proactive" :: h :: "holt" :: alpha :: beta :: rest
        when List.length rest <= 1 -> (
          match (weight_of_token alpha, weight_of_token beta) with
          | None, _ -> err_weight "holt alpha" alpha
          | _, None -> err_weight "holt beta" beta
          | Some alpha, Some beta ->
              with_headroom
                (fun () ->
                  proactive ~model:(Forecast.Holt_winters { alpha; beta }) h)
                (match rest with [] -> None | hd :: _ -> Some hd))
      | _ ->
          Error
            (Printf.sprintf
               "unknown policy %S (immediate, \
                debounced[:BUDGET_MS[:COOLDOWN_MS]], scheduled, \
                proactive[:HORIZON_MS[:ewma:ALPHA|holt:ALPHA:BETA[:HEADROOM]]])"
               s))

let trigger_name = function
  | Mandatory -> "mandatory"
  | Structural -> "structural"
  | Traffic_shift -> "traffic"
  | Forecast -> "forecast"
