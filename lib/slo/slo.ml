type t = { t_min : float; t_max : float; d_max : float; weight : float }

(* A chain meets its [t_min] when it delivers at least this fraction of
   it, which absorbs the sampling noise of a measured rate. *)
let throughput_tolerance = 0.98

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let make ?(t_min = 0.0) ?(t_max = infinity) ?(d_max = infinity) ?(weight = 1.0) () =
  { t_min; t_max; d_max; weight }

let best_effort = make ()

type use_case = Bulk | Metered_bulk | Virtual_pipe | Elastic_pipe | Infinite_pipe

let classify { t_min; t_max; _ } =
  if t_min <= 0.0 then if t_max = infinity then Bulk else Metered_bulk
  else if t_max = infinity then Infinite_pipe
  else if Float.abs (t_max -. t_min) < 1e-6 then Virtual_pipe
  else Elastic_pipe

let use_case_name = function
  | Bulk -> "Bulk"
  | Metered_bulk -> "Metered bulk"
  | Virtual_pipe -> "Virtual pipe"
  | Elastic_pipe -> "Elastic pipe"
  | Infinite_pipe -> "Infinite pipe"

let marginal slo rate = Float.max 0.0 (rate -. slo.t_min)

type verdict = { throughput_met : bool; latency_met : bool; marginal : float }

let throughput_floor ~slack slo ~offered =
  (throughput_tolerance *. Float.min offered slo.t_min) -. slack

let verdict ~slack slo ~offered ~delivered ~p99 ~batches =
  {
    throughput_met = not (delivered < throughput_floor ~slack slo ~offered);
    latency_met =
      not
        (slo.d_max < infinity
        && if batches > 0 then p99 > slo.d_max else offered > 0.0);
    marginal = Float.max 0.0 (delivered -. Float.min offered slo.t_min);
  }

let met v = v.throughput_met && v.latency_met

let validate { t_min; t_max; d_max; weight } =
  if t_min < 0.0 then invalid "t_min must be non-negative";
  if t_max < t_min then invalid "t_max (%g) below t_min (%g)" t_max t_min;
  if d_max <= 0.0 then invalid "d_max must be positive";
  if weight <= 0.0 then invalid "weight must be positive"

let with_suffix s suffixes =
  let low = String.lowercase_ascii (String.trim s) in
  let rec try_suffixes = function
    | [] -> None
    | (suffix, scale) :: rest ->
        let ls = String.length suffix and l = String.length low in
        if l > ls && String.sub low (l - ls) ls = suffix then
          match float_of_string_opt (String.trim (String.sub low 0 (l - ls))) with
          | Some v -> Some (v *. scale)
          | None -> None
        else try_suffixes rest
  in
  try_suffixes suffixes

let rate_of_string s =
  match
    with_suffix s
      [ ("gbps", 1e9); ("mbps", 1e6); ("kbps", 1e3); ("bps", 1.0) ]
  with
  | Some v -> v
  | None -> (
      match float_of_string_opt (String.trim s) with
      | Some v -> v
      | None -> invalid "cannot parse rate %S" s)

let duration_of_string s =
  (* Order matters: "us"/"ms"/"ns" before bare "s". *)
  match
    with_suffix s [ ("ns", 1.0); ("us", 1e3); ("ms", 1e6); ("s", 1e9) ]
  with
  | Some v -> v
  | None -> (
      match float_of_string_opt (String.trim s) with
      | Some v -> v
      | None -> invalid "cannot parse duration %S" s)

let of_params params =
  let rate v =
    match v with
    | Lemur_nf.Params.Str s -> rate_of_string s
    | Lemur_nf.Params.Int n -> float_of_int n
    | Lemur_nf.Params.Float f -> f
    | _ -> invalid "SLO rate must be a string or number"
  in
  let duration v =
    match v with
    | Lemur_nf.Params.Str s -> duration_of_string s
    | Lemur_nf.Params.Int n -> float_of_int n
    | Lemur_nf.Params.Float f -> f
    | _ -> invalid "SLO duration must be a string or number"
  in
  let slo =
    List.fold_left
      (fun acc (key, v) ->
        match String.lowercase_ascii key with
        | "tmin" | "t_min" -> { acc with t_min = rate v }
        | "tmax" | "t_max" -> { acc with t_max = rate v }
        | "dmax" | "d_max" -> { acc with d_max = duration v }
        | "weight" -> (
            match v with
            | Lemur_nf.Params.Int n -> { acc with weight = float_of_int n }
            | Lemur_nf.Params.Float f -> { acc with weight = f }
            | _ -> invalid "SLO weight must be a number")
        | other -> invalid "unknown SLO key %S" other)
      best_effort params
  in
  validate slo;
  slo

let pp ppf { t_min; t_max; d_max; weight } =
  let pp_rate ppf r =
    if r = infinity then Format.pp_print_string ppf "inf"
    else Lemur_util.Units.pp_rate ppf r
  in
  Format.fprintf ppf "slo(tmin=%a, tmax=%a" pp_rate t_min pp_rate t_max;
  if d_max < infinity then
    Format.fprintf ppf ", dmax=%.1fus" (Lemur_util.Units.to_us d_max);
  if weight <> 1.0 then Format.fprintf ppf ", weight=%g" weight;
  Format.pp_print_string ppf ")"
