type action =
  | Traffic of { chain_id : string; rate : float }
  | Set_slo of { chain_id : string; slo : Lemur_slo.Slo.t }
  | Add_chain of { decl : string }
  | Remove_chain of string
  | Fail of Lemur.Failover.failure
  | Recover of Lemur.Failover.failure
  | Window of string

type event = { at : float; action : action }

type topo_spec = {
  servers : int;
  cores_per_socket : int;
  smartnic : bool;
  ofswitch : bool;
  no_pisa : bool;
  metron : bool;
}

type t = {
  seed : int option;
  topo : topo_spec;
  chains : string list;
  windows : (string * (string * Lemur_slo.Slo.t) list) list;
  events : event list;
  horizon : float;
}

let topology t =
  if t.topo.no_pisa then
    Lemur_topology.Topology.no_pisa_testbed ~ofswitch:t.topo.ofswitch ()
  else
    Lemur_topology.Topology.testbed ~num_servers:t.topo.servers
      ~cores_per_socket:t.topo.cores_per_socket ~smartnic:t.topo.smartnic
      ~ofswitch:t.topo.ofswitch ()

let config t =
  {
    (Lemur_placer.Plan.default_config (topology t)) with
    Lemur_placer.Plan.metron_steering = t.topo.metron;
  }

(* ------------------------------------------------------------------ *)
(* Chain declarations ride on the spec language untouched: a trace
   line holds everything after the [chain] keyword. *)

let parse_chain_decls decls =
  Lemur.Chains.inputs_of_spec
    (String.concat "\n" (List.map (fun d -> "chain " ^ d) decls))

let parse_chain_decl decl =
  match parse_chain_decls [ decl ] with
  | Error e -> Error e
  | Ok [ input ] -> Ok input
  | Ok _ -> Error "expected exactly one chain declaration"

let initial_inputs t =
  if t.chains = [] then Error "trace declares no initial chains"
  else parse_chain_decls t.chains

let dynamics_event = function
  | Set_slo { chain_id; slo } ->
      Some (Ok (Lemur.Dynamics.Slo_changed { chain_id; slo }))
  | Add_chain { decl } ->
      Some
        (Result.map
           (fun input -> Lemur.Dynamics.Chain_added input)
           (parse_chain_decl decl))
  | Remove_chain id -> Some (Ok (Lemur.Dynamics.Chain_removed id))
  | Traffic _ | Fail _ | Recover _ | Window _ -> None

(* ------------------------------------------------------------------ *)
(* Text format *)

(* Shortest exact decimal round-trip. *)
let fl = Lemur_util.Units.exact_string

let slo_kvs (slo : Lemur_slo.Slo.t) =
  let open Lemur_slo.Slo in
  List.concat
    [
      (if slo.t_min > 0.0 then [ "tmin=" ^ fl slo.t_min ] else []);
      (if slo.t_max < infinity then [ "tmax=" ^ fl slo.t_max ] else []);
      (if slo.d_max < infinity then [ "dmax=" ^ fl slo.d_max ] else []);
      (if slo.weight <> 1.0 then [ "weight=" ^ fl slo.weight ] else []);
    ]

(* [Error (token, message)]: [token], when known, is the exact
   [key=value] token at fault, which lets the parser point the reported
   column at it. *)
let slo_of_kvs kvs =
  let exception Bad of string option * string in
  let num_or parse s =
    match float_of_string_opt s with Some x -> x | None -> parse s
  in
  try
    let slo =
      List.fold_left
        (fun slo kv ->
          match String.index_opt kv '=' with
          | None ->
              raise
                (Bad (Some kv, Printf.sprintf "expected key=value, got %S" kv))
          | Some i -> (
              let key = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              let open Lemur_slo.Slo in
              try
                match key with
                | "tmin" -> { slo with t_min = num_or rate_of_string v }
                | "tmax" -> { slo with t_max = num_or rate_of_string v }
                | "dmax" -> { slo with d_max = num_or duration_of_string v }
                | "weight" ->
                    { slo with weight = num_or (fun _ -> raise (Invalid "weight")) v }
                | _ ->
                    raise
                      (Bad (Some kv, Printf.sprintf "unknown SLO key %S" key))
              with Lemur_slo.Slo.Invalid m ->
                raise (Bad (Some kv, "bad SLO: " ^ m))))
        Lemur_slo.Slo.best_effort kvs
    in
    Lemur_slo.Slo.validate slo;
    Ok slo
  with
  | Bad (tok, m) -> Error (tok, m)
  | Lemur_slo.Slo.Invalid m -> Error (None, "bad SLO: " ^ m)

let action_to_string = function
  | Traffic { chain_id; rate } -> Printf.sprintf "traffic %s %s" chain_id (fl rate)
  | Set_slo { chain_id; slo } ->
      Printf.sprintf "slo %s %s" chain_id (String.concat " " (slo_kvs slo))
  | Add_chain { decl } -> "add " ^ decl
  | Remove_chain id -> "remove " ^ id
  | Fail f -> "fail " ^ Lemur.Failover.to_string f
  | Recover f -> "recover " ^ Lemur.Failover.to_string f
  | Window label -> "window " ^ label

let pp_action ppf a = Format.pp_print_string ppf (action_to_string a)

let to_string t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# lemur trace v1";
  (match t.seed with Some s -> line "seed %d" s | None -> ());
  line "horizon %s" (fl t.horizon);
  line "topology servers=%d cores=%d%s%s%s%s" t.topo.servers
    t.topo.cores_per_socket
    (if t.topo.smartnic then " smartnic" else "")
    (if t.topo.ofswitch then " ofswitch" else "")
    (if t.topo.no_pisa then " no-pisa" else "")
    (if t.topo.metron then " metron" else "");
  List.iter (fun decl -> line "chain %s" decl) t.chains;
  List.iter
    (fun (label, slos) ->
      List.iter
        (fun (id, slo) ->
          line "window %s %s %s" label id (String.concat " " (slo_kvs slo)))
        slos)
    t.windows;
  List.iter
    (fun ev -> line "@%s %s" (fl ev.at) (action_to_string ev.action))
    t.events;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let default_topo =
  {
    servers = 1;
    cores_per_socket = 8;
    smartnic = false;
    ofswitch = false;
    no_pisa = false;
    metron = false;
  }

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

(* [strip_head n line] drops the first [n] whitespace-separated tokens
   and returns the rest verbatim (chain declarations embed spaces). *)
let strip_head n line =
  let len = String.length line in
  let rec skip i remaining in_tok =
    if i >= len then len
    else
      match (line.[i], in_tok, remaining) with
      | (' ' | '\t'), true, 1 -> i
      | (' ' | '\t'), true, r -> skip (i + 1) (r - 1) false
      | (' ' | '\t'), false, _ -> skip (i + 1) remaining false
      | _, _, _ -> skip (i + 1) remaining true
  in
  String.trim (String.sub line (skip 0 n false) (len - skip 0 n false))

type parse_error = {
  pe_file : string option;
  pe_line : int;  (** 1-based; 0 for whole-trace errors *)
  pe_col : int;  (** 1-based; 1 when no finer position is known *)
  pe_message : string;
}

let parse_error_to_string e =
  if e.pe_line = 0 then
    Printf.sprintf "%s: %s"
      (Option.value e.pe_file ~default:"<trace>")
      e.pe_message
  else
    Printf.sprintf "%s:%d:%d: %s"
      (Option.value e.pe_file ~default:"<trace>")
      e.pe_line e.pe_col e.pe_message

(* 1-based column of [tok]'s first whitespace-delimited occurrence in
   [line]; 1 when it cannot be found (the caller still gets the line). *)
let token_col line tok =
  let len = String.length line and tl = String.length tok in
  let is_ws c = c = ' ' || c = '\t' in
  let rec search i =
    if tl = 0 || i + tl > len then 1
    else if
      String.sub line i tl = tok
      && (i = 0 || is_ws line.[i - 1])
      && (i + tl = len || is_ws line.[i + tl])
    then i + 1
    else search (i + 1)
  in
  search 0

let parse ?file source =
  let lines = String.split_on_char '\n' source in
  let seed = ref None
  and horizon = ref None
  and topo = ref default_topo
  and chains = ref []
  and windows = ref []
  and events = ref [] in
  let err ?(col = 1) lineno msg =
    Error { pe_file = file; pe_line = lineno; pe_col = col; pe_message = msg }
  in
  let err_tok line lineno tok msg =
    err ~col:(match tok with Some t -> token_col line t | None -> 1) lineno msg
  in
  (* The no-PISA testbed is one fixed server with [default_topo]'s
     cores and no SmartNIC: an option that would change it is an error
     at that option (or at [no-pisa] if it came on an earlier line). *)
  let no_pisa_conflict line lineno opts =
    let d = default_topo and t = !topo in
    let changes opt =
      match String.split_on_char '=' opt with
      | [ "servers"; v ] -> int_of_string_opt v <> Some d.servers
      | [ "cores"; v ] -> int_of_string_opt v <> Some d.cores_per_socket
      | _ -> opt = "smartnic"
    in
    if
      t.no_pisa
      && (t.servers, t.cores_per_socket, t.smartnic)
         <> (d.servers, d.cores_per_socket, d.smartnic)
    then
      let opt = Option.value (List.find_opt changes opts) ~default:"no-pisa" in
      err_tok line lineno (Some opt)
        (Printf.sprintf
           "topology option %S does not apply with no-pisa: the no-PISA \
            testbed is one fixed %d-core server without a SmartNIC"
           opt d.cores_per_socket)
    else Ok ()
  in
  let parse_action lineno line tokens rest =
    match tokens with
    | "traffic" :: chain_id :: rate :: [] -> (
        match float_of_string_opt rate with
        | Some r when r >= 0.0 -> Ok (Traffic { chain_id; rate = r })
        | _ -> (
            match Lemur_slo.Slo.rate_of_string rate with
            | r -> Ok (Traffic { chain_id; rate = r })
            | exception Lemur_slo.Slo.Invalid m -> err lineno m))
    | "slo" :: chain_id :: kvs -> (
        match slo_of_kvs kvs with
        | Ok slo -> Ok (Set_slo { chain_id; slo })
        | Error (tok, m) -> err_tok line lineno tok m)
    | "add" :: _ :: _ -> Ok (Add_chain { decl = strip_head 1 rest })
    | "remove" :: id :: [] -> Ok (Remove_chain id)
    | "fail" :: el :: [] -> (
        match Lemur.Failover.of_string el with
        | Ok f -> Ok (Fail f)
        | Error m -> err lineno m)
    | "recover" :: el :: [] -> (
        match Lemur.Failover.of_string el with
        | Ok f -> Ok (Recover f)
        | Error m -> err lineno m)
    | "window" :: label :: [] -> Ok (Window label)
    | verb :: _ -> err lineno (Printf.sprintf "unknown event %S" verb)
    | [] -> err lineno "empty event"
  in
  let parse_line lineno line =
    let trimmed = String.trim line in
    if trimmed = "" || trimmed.[0] = '#' then Ok ()
    else if trimmed.[0] = '@' then
      let body = String.sub trimmed 1 (String.length trimmed - 1) in
      match split_ws body with
      | at :: tokens -> (
          match float_of_string_opt at with
          | None -> err lineno (Printf.sprintf "bad timestamp %S" at)
          | Some at when at < 0.0 -> err lineno "negative timestamp"
          | Some at -> (
              match parse_action lineno line tokens (strip_head 1 body) with
              | Ok action ->
                  events := { at; action } :: !events;
                  Ok ()
              | Error e -> Error e))
      | [] -> err lineno "empty event line"
    else
      match split_ws trimmed with
      | "seed" :: s :: [] -> (
          match int_of_string_opt s with
          | Some s ->
              seed := Some s;
              Ok ()
          | None -> err lineno (Printf.sprintf "bad seed %S" s))
      | "horizon" :: h :: [] -> (
          match float_of_string_opt h with
          | Some h when h > 0.0 ->
              horizon := Some h;
              Ok ()
          | _ -> err lineno (Printf.sprintf "bad horizon %S" h))
      | "topology" :: opts ->
          Result.bind
            (List.fold_left
              (fun acc opt ->
                Result.bind acc (fun () ->
                    match String.index_opt opt '=' with
                    | Some i -> (
                        let key = String.sub opt 0 i in
                        let v = String.sub opt (i + 1) (String.length opt - i - 1) in
                        match (key, int_of_string_opt v) with
                        | "servers", Some n when n > 0 ->
                            topo := { !topo with servers = n };
                            Ok ()
                        | "cores", Some n when n > 0 ->
                            topo := { !topo with cores_per_socket = n };
                            Ok ()
                        | _ ->
                            err_tok line lineno (Some opt)
                              (Printf.sprintf "bad topology option %S" opt))
                    | None -> (
                        match opt with
                        | "smartnic" ->
                            topo := { !topo with smartnic = true };
                            Ok ()
                        | "ofswitch" ->
                            topo := { !topo with ofswitch = true };
                            Ok ()
                        | "no-pisa" ->
                            topo := { !topo with no_pisa = true };
                            Ok ()
                        | "metron" ->
                            topo := { !topo with metron = true };
                            Ok ()
                        | _ ->
                            err_tok line lineno (Some opt)
                              (Printf.sprintf "unknown topology flag %S" opt))))
              (Ok ()) opts)
            (fun () -> no_pisa_conflict line lineno opts)
      | "chain" :: _ :: _ ->
          chains := strip_head 1 trimmed :: !chains;
          Ok ()
      | "window" :: label :: id :: kvs -> (
          match slo_of_kvs kvs with
          | Error (tok, m) -> err_tok line lineno tok m
          | Ok slo ->
              let entry = (id, slo) in
              (windows :=
                 match List.assoc_opt label !windows with
                 | Some _ ->
                     List.map
                       (fun (l, s) ->
                         if l = label then (l, s @ [ entry ]) else (l, s))
                       !windows
                 | None -> !windows @ [ (label, [ entry ]) ]);
              Ok ())
      | verb :: _ -> err lineno (Printf.sprintf "unknown directive %S" verb)
      | [] -> Ok ()
  in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match parse_line lineno line with
        | Ok () -> go (lineno + 1) rest
        | Error e -> Error e)
  in
  match go 1 lines with
  | Error e -> Error e
  | Ok () ->
      let events =
        List.stable_sort (fun a b -> Float.compare a.at b.at) (List.rev !events)
      in
      let horizon =
        match !horizon with
        | Some h -> h
        | None -> (
            match List.rev events with
            | last :: _ -> last.at +. 0.02
            | [] -> 0.05)
      in
      if List.exists (fun e -> e.at > horizon) events then
        Error
          {
            pe_file = file;
            pe_line = 0;
            pe_col = 1;
            pe_message = "trace has events beyond the horizon";
          }
      else
        Ok
          {
            seed = !seed;
            topo = !topo;
            chains = List.rev !chains;
            windows = !windows;
            events;
            horizon;
          }

(* ------------------------------------------------------------------ *)
(* Seeded generation *)

let gen_pipelines =
  [|
    "ACL -> Encrypt -> IPv4Fwd";
    "BPF -> NAT -> IPv4Fwd";
    "ACL -> NAT";
    "Tunnel -> IPv4Fwd";
    "Monitor -> Encrypt";
  |]

let gen_extra_pipelines = [| "Tunnel -> IPv4Fwd"; "ACL -> NAT"; "Encrypt" |]

(* Rates are multiples of 0.1 Gbps so the Gbps-suffixed declaration
   strings and the raw bit/s event fields both round-trip exactly. *)
let tenth_gbps prng lo hi = float_of_int (lo + Lemur_util.Prng.int prng (hi - lo + 1)) *. 1e8

(* Snap any computed rate to the same 0.1 Gbps lattice: [n *. 1e8] for
   integer [n] is exactly representable, so the text form re-reads
   bit-identically. *)
let quantize_rate x = Float.max 1e8 (Float.round (x /. 1e8) *. 1e8)

type kind = Churn | Diurnal | Flash_crowd | Failure_burst | Tenant_churn

let all_kinds = [ Churn; Diurnal; Flash_crowd; Failure_burst; Tenant_churn ]

let kind_to_string = function
  | Churn -> "churn"
  | Diurnal -> "diurnal"
  | Flash_crowd -> "flash-crowd"
  | Failure_burst -> "failure-burst"
  | Tenant_churn -> "tenant-churn"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "churn" -> Ok Churn
  | "diurnal" -> Ok Diurnal
  | "flash-crowd" | "flash" -> Ok Flash_crowd
  | "failure-burst" | "failures" -> Ok Failure_burst
  | "tenant-churn" | "tenants" -> Ok Tenant_churn
  | other ->
      Error
        (Printf.sprintf
           "unknown trace kind %S (churn, diurnal, flash-crowd, \
            failure-burst, tenant-churn)"
           other)

let gen_churn ~events ~seed =
  let prng = Lemur_util.Prng.create ~seed in
  let open Lemur_util in
  let topo =
    {
      servers = 1 + Prng.int prng 2;
      cores_per_socket = (if Prng.bool prng then 8 else 6);
      smartnic = Prng.int prng 3 = 0;
      ofswitch = Prng.int prng 3 = 0;
      no_pisa = false;
      metron = false;
    }
  in
  let n_chains = 2 + Prng.int prng 2 in
  let chain_ids = List.init n_chains (fun i -> Printf.sprintf "c%d" i) in
  let tmins = List.map (fun _ -> tenth_gbps prng 2 12) chain_ids in
  let chains =
    List.map2
      (fun id tmin ->
        let dmax =
          if Prng.int prng 4 = 0 then ", dmax='300us'" else ""
        in
        Printf.sprintf "%s slo(tmin='%.1fGbps', tmax='100Gbps'%s) = %s" id
          (tmin /. 1e9) dmax
          (Prng.choose prng gen_pipelines))
      chain_ids tmins
  in
  let windows =
    [
      ( "peak",
        List.map2
          (fun id tmin ->
            (id, Lemur_slo.Slo.make ~t_min:(tmin *. 1.5) ~t_max:100e9 ()))
          chain_ids tmins );
      ( "offpeak",
        List.map2
          (fun id tmin ->
            (id, Lemur_slo.Slo.make ~t_min:(tmin *. 0.5) ~t_max:100e9 ()))
          chain_ids tmins );
    ]
  in
  let failable () =
    List.concat
      [
        (if topo.smartnic then [ Lemur.Failover.Smartnic_failed ] else []);
        (if topo.ofswitch then [ Lemur.Failover.Ofswitch_failed ] else []);
        (if topo.servers >= 2 then
           [ Lemur.Failover.Server_failed (Printf.sprintf "server%d" (topo.servers - 1)) ]
         else []);
      ]
  in
  let failed = ref [] in
  let extras = ref [] in
  let next_extra = ref 0 in
  let t = ref 0.0 in
  let evs = ref [] in
  let emit action = evs := { at = !t; action } :: !evs in
  let live_ids () = chain_ids @ List.map fst !extras in
  for _ = 1 to events do
    t := !t +. 0.004 +. (float_of_int (Prng.int prng 13) /. 1000.0);
    let roll = Prng.int prng 100 in
    let fail_candidates =
      List.filter (fun f -> not (List.mem f !failed)) (failable ())
    in
    if roll < 55 then
      let id = Prng.choose prng (Array.of_list (live_ids ())) in
      emit (Traffic { chain_id = id; rate = tenth_gbps prng 1 30 })
    else if roll < 67 then
      let id = Prng.choose prng (Array.of_list chain_ids) in
      emit
        (Set_slo
           {
             chain_id = id;
             slo = Lemur_slo.Slo.make ~t_min:(tenth_gbps prng 1 20) ~t_max:100e9 ();
           })
    else if roll < 75 && List.length !extras < 2 then begin
      let id = Printf.sprintf "x%d" !next_extra in
      incr next_extra;
      extras := (id, ()) :: !extras;
      emit
        (Add_chain
           {
             decl =
               Printf.sprintf "%s slo(tmin='0.2Gbps', tmax='100Gbps') = %s" id
                 (Prng.choose prng gen_extra_pipelines);
           })
    end
    else if roll < 80 && !extras <> [] then begin
      let id, () = Prng.choose prng (Array.of_list !extras) in
      extras := List.filter (fun (i, ()) -> i <> id) !extras;
      emit (Remove_chain id)
    end
    else if roll < 87 && fail_candidates <> [] then begin
      let f = Prng.choose prng (Array.of_list fail_candidates) in
      failed := f :: !failed;
      emit (Fail f)
    end
    else if roll < 93 && !failed <> [] then begin
      let f = Prng.choose prng (Array.of_list !failed) in
      failed := List.filter (fun g -> g <> f) !failed;
      emit (Recover f)
    end
    else emit (Window (if Prng.bool prng then "peak" else "offpeak"))
  done;
  {
    seed = Some seed;
    topo;
    chains;
    windows;
    events = List.rev !evs;
    horizon = !t +. 0.02;
  }

(* Shared scaffolding for the shaped generators: fixed-ish topologies,
   [n] chains with declared floors, and an event accumulator whose
   output is stably time-sorted (what {!parse} produces, so generated
   traces are a fixed point of the text round-trip). *)

let chain_decl id tmin pipeline =
  Printf.sprintf "%s slo(tmin='%.1fGbps', tmax='100Gbps') = %s" id
    (tmin /. 1e9) pipeline

let finish ~seed ~topo ~chains ~windows ~horizon evs =
  {
    seed = Some seed;
    topo;
    chains;
    windows;
    events = List.stable_sort (fun a b -> Float.compare a.at b.at) (List.rev evs);
    horizon;
  }

(* Diurnal: each chain's demand follows its own sinusoid (period, phase
   and amplitude drawn once from the seed), sampled on a dense event
   grid. Pure demand dynamics — no structural events — so the slow
   coherent ramps isolate exactly what a trend-aware forecaster can
   extrapolate and a reactive policy keeps chasing. *)
let gen_diurnal ~events ~seed =
  let prng = Lemur_util.Prng.create ~seed in
  let open Lemur_util in
  let topo = { default_topo with servers = 2; cores_per_socket = 8 } in
  let n_chains = 2 + Prng.int prng 2 in
  let chain_ids = List.init n_chains (fun i -> Printf.sprintf "c%d" i) in
  let bases = List.map (fun _ -> tenth_gbps prng 4 9) chain_ids in
  let tmins = List.map (fun b -> quantize_rate (b *. 0.5)) bases in
  let chains =
    List.map2
      (fun id tmin -> chain_decl id tmin (Prng.choose prng gen_pipelines))
      chain_ids tmins
  in
  let params =
    List.map
      (fun b ->
        let period_s = float_of_int (60 + Prng.int prng 61) /. 1000.0 in
        let phase = float_of_int (Prng.int prng 100) /. 100.0 *. 2.0 *. Float.pi in
        let amp = 0.5 +. (float_of_int (Prng.int prng 4) /. 10.0) in
        (b, period_s, phase, amp))
      bases
  in
  let chain_arr = Array.of_list chain_ids in
  let param_arr = Array.of_list params in
  let t = ref 0.0 in
  let evs = ref [] in
  for step = 0 to events - 1 do
    t := !t +. 0.002 +. (float_of_int (Prng.int prng 4) /. 1000.0);
    let i = step mod n_chains in
    let b, period_s, phase, amp = param_arr.(i) in
    let tide = sin (((2.0 *. Float.pi) *. !t /. period_s) +. phase) in
    evs :=
      {
        at = !t;
        action =
          Traffic
            {
              chain_id = chain_arr.(i);
              rate = quantize_rate (b *. (1.0 +. (amp *. tide)));
            };
      }
      :: !evs
  done;
  finish ~seed ~topo ~chains ~windows:[] ~horizon:(!t +. 0.02) !evs

(* Flash crowd: quiet baselines punctuated by sudden multi-event spikes
   on one chain — a steep ramp to several times the base rate, a short
   hold, then decay. The onset ramp is steep but spans a few events, so
   a forecaster that extrapolates slope can fire before the peak. *)
let gen_flash_crowd ~events ~seed =
  let prng = Lemur_util.Prng.create ~seed in
  let open Lemur_util in
  let topo = { default_topo with servers = 2; cores_per_socket = 8 } in
  let n_chains = 2 + Prng.int prng 2 in
  let chain_ids = List.init n_chains (fun i -> Printf.sprintf "c%d" i) in
  let bases = List.map (fun _ -> tenth_gbps prng 2 5 ) chain_ids in
  let tmins = List.map (fun b -> quantize_rate (b *. 0.5)) bases in
  let chains =
    List.map2
      (fun id tmin -> chain_decl id tmin (Prng.choose prng gen_pipelines))
      chain_ids tmins
  in
  let chain_arr = Array.of_list chain_ids in
  let base_arr = Array.of_list bases in
  let profile = [ 2.0; 4.0; 7.0; 8.0; 8.0; 6.0; 3.0; 1.0 ] in
  let spike = ref None in
  let t = ref 0.0 in
  let evs = ref [] in
  let emit chain_id rate =
    evs := { at = !t; action = Traffic { chain_id; rate } } :: !evs
  in
  for _ = 0 to events - 1 do
    t := !t +. 0.003 +. (float_of_int (Prng.int prng 5) /. 1000.0);
    match !spike with
    | Some (i, m :: rest) ->
        emit chain_arr.(i) (quantize_rate (base_arr.(i) *. m));
        spike := (if rest = [] then None else Some (i, rest))
    | Some (_, []) | None ->
        if Prng.int prng 100 < 12 then begin
          let i = Prng.int prng n_chains in
          emit chain_arr.(i)
            (quantize_rate (base_arr.(i) *. List.hd profile));
          spike := Some (i, List.tl profile)
        end
        else begin
          let i = Prng.int prng n_chains in
          let jitter = float_of_int (Prng.int prng 5 - 2) *. 1e8 in
          emit chain_arr.(i) (quantize_rate (base_arr.(i) +. jitter))
        end
  done;
  finish ~seed ~topo ~chains ~windows:[] ~horizon:(!t +. 0.02) !evs

(* Failure burst: a redundant rack (three servers, SmartNIC, OF switch)
   where failures arrive correlated — two or three elements go down
   within ~2 ms, then each recovers 20–40 ms later. Floors are modest so
   the degraded rack usually still places. *)
let gen_failure_burst ~events ~seed =
  let prng = Lemur_util.Prng.create ~seed in
  let open Lemur_util in
  let topo =
    {
      default_topo with
      servers = 3;
      cores_per_socket = 8;
      smartnic = true;
      ofswitch = true;
    }
  in
  let n_chains = 2 + Prng.int prng 2 in
  let chain_ids = List.init n_chains (fun i -> Printf.sprintf "c%d" i) in
  let tmins = List.map (fun _ -> tenth_gbps prng 2 5) chain_ids in
  let chains =
    List.map2
      (fun id tmin -> chain_decl id tmin (Prng.choose prng gen_pipelines))
      chain_ids tmins
  in
  let failable =
    [
      Lemur.Failover.Smartnic_failed;
      Lemur.Failover.Ofswitch_failed;
      Lemur.Failover.Server_failed "server1";
      Lemur.Failover.Server_failed "server2";
    ]
  in
  let chain_arr = Array.of_list chain_ids in
  (* (element, recovery time): down until the trace clock passes it *)
  let down = ref [] in
  let t = ref 0.0 in
  let evs = ref [] in
  let last_t = ref 0.0 in
  for _ = 0 to events - 1 do
    t := !t +. 0.004 +. (float_of_int (Prng.int prng 9) /. 1000.0);
    down := List.filter (fun (_, r) -> r >= !t) !down;
    let candidates =
      List.filter (fun f -> not (List.mem_assoc f !down)) failable
    in
    if Prng.int prng 100 < 10 && List.length candidates >= 2 then begin
      let k = min (2 + Prng.int prng 2) (List.length candidates) in
      let chosen = ref [] in
      let pool = ref candidates in
      for _ = 1 to k do
        let f = Prng.choose prng (Array.of_list !pool) in
        pool := List.filter (fun g -> g <> f) !pool;
        chosen := f :: !chosen
      done;
      List.iteri
        (fun j f ->
          let fail_at = !t +. (float_of_int j *. 0.001) in
          let recover_at =
            fail_at +. 0.020 +. (float_of_int (Prng.int prng 21) /. 1000.0)
          in
          down := (f, recover_at) :: !down;
          evs := { at = fail_at; action = Fail f } :: !evs;
          evs := { at = recover_at; action = Recover f } :: !evs;
          last_t := Float.max !last_t recover_at)
        (List.rev !chosen)
    end
    else begin
      let i = Prng.int prng n_chains in
      evs :=
        {
          at = !t;
          action =
            Traffic { chain_id = chain_arr.(i); rate = tenth_gbps prng 1 15 };
        }
        :: !evs
    end;
    last_t := Float.max !last_t !t
  done;
  finish ~seed ~topo ~chains ~windows:[] ~horizon:(!last_t +. 0.02) !evs

(* Multi-tenant churn: tenants arrive and depart constantly — the
   add/remove-heavy mix that exercises mandatory reconfigurations and
   gives a move budget extra pressure from re-homing survivors. *)
let gen_tenant_churn ~events ~seed =
  let prng = Lemur_util.Prng.create ~seed in
  let open Lemur_util in
  let topo =
    { default_topo with servers = 2 + Prng.int prng 2; cores_per_socket = 8 }
  in
  let n_chains = 2 in
  let chain_ids = List.init n_chains (fun i -> Printf.sprintf "c%d" i) in
  let tmins = List.map (fun _ -> tenth_gbps prng 2 6) chain_ids in
  let chains =
    List.map2
      (fun id tmin -> chain_decl id tmin (Prng.choose prng gen_pipelines))
      chain_ids tmins
  in
  let extras = ref [] in
  let next_extra = ref 0 in
  let t = ref 0.0 in
  let evs = ref [] in
  let emit action = evs := { at = !t; action } :: !evs in
  for _ = 0 to events - 1 do
    t := !t +. 0.003 +. (float_of_int (Prng.int prng 7) /. 1000.0);
    let roll = Prng.int prng 100 in
    if roll < 22 && List.length !extras < 4 then begin
      let id = Printf.sprintf "x%d" !next_extra in
      incr next_extra;
      extras := !extras @ [ id ];
      emit
        (Add_chain
           {
             decl = chain_decl id 2e8 (Prng.choose prng gen_extra_pipelines);
           })
    end
    else if roll < 40 && !extras <> [] then begin
      let id = Prng.choose prng (Array.of_list !extras) in
      extras := List.filter (fun i -> i <> id) !extras;
      emit (Remove_chain id)
    end
    else begin
      let live = Array.of_list (chain_ids @ !extras) in
      emit
        (Traffic
           { chain_id = Prng.choose prng live; rate = tenth_gbps prng 1 20 })
    end
  done;
  finish ~seed ~topo ~chains ~windows:[] ~horizon:(!t +. 0.02) !evs

let generate ?(events = 60) ?(kind = Churn) ~seed () =
  match kind with
  | Churn -> gen_churn ~events ~seed
  | Diurnal -> gen_diurnal ~events ~seed
  | Flash_crowd -> gen_flash_crowd ~events ~seed
  | Failure_burst -> gen_failure_burst ~events ~seed
  | Tenant_churn -> gen_tenant_churn ~events ~seed
