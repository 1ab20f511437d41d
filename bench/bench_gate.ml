(* The envelope the gated `bench --` harnesses (scale, classify) share:
   one flag parser, one gate list, one report writer and one exit-code
   rule. A harness keeps only its workload and its gate predicates, and
   a gate here reads a clock: what a run computes is pinned by tests
   under test/ instead.

   Exit codes: 0 when every gate passes, 1 when any gate fails, 2 on a
   usage error or an unwritable report. docs/PERFORMANCE.md documents
   the report schema. *)

module Json = Lemur_telemetry.Json
module Pool = Lemur_util.Pool

type opts = {
  harness : string;
  quick : bool;
  seed : int option;  (* [Some] exactly when the harness takes --seed *)
  jobs : int;
  out : string;
}

type gate = { name : string; ok : bool; detail : string }

let gate name ok detail = { name; ok; detail }

(* [seed] is the harness's default seed and makes --seed acceptable.
   --quick, -j/--jobs and --out are accepted everywhere. A bad argument
   prints the usage line and exits 2 here, so no harness sees an
   unparsed value. *)
let parse ?seed harness args =
  let valued =
    [ "-j"; "--jobs"; "--out" ] @ if seed <> None then [ "--seed" ] else []
  in
  let usage =
    Printf.sprintf "usage: bench -- %s [--quick]%s [-j N] [--out FILE]"
      harness
      (if seed <> None then " [--seed N]" else "")
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "bench %s: %s\n%s\n" harness msg usage;
        exit 2)
      fmt
  in
  let int_arg flag ~min v =
    match int_of_string_opt v with
    | Some n when n >= min -> n
    | _ -> fail "%s expects an integer >= %d, got %S" flag min v
  in
  let rec go o = function
    | [] -> o
    | "--quick" :: rest -> go { o with quick = true } rest
    | [ flag ] when List.mem flag valued -> fail "%s needs a value" flag
    | "--seed" :: v :: rest when seed <> None ->
        go { o with seed = Some (int_arg "--seed" ~min:0 v) } rest
    | (("-j" | "--jobs") as flag) :: v :: rest ->
        go { o with jobs = int_arg flag ~min:1 v } rest
    | "--out" :: v :: rest -> go { o with out = v } rest
    | arg :: _ -> fail "unknown argument %S" arg
  in
  go
    {
      harness;
      quick = false;
      seed;
      jobs = max 2 (Pool.recommended_domains ());
      out = Printf.sprintf "BENCH_%s.json" harness;
    }
    args

let gate_json g =
  Json.Obj
    [
      ("name", Json.String g.name);
      ("ok", Json.Bool g.ok);
      ("detail", Json.String g.detail);
    ]

(* Print every gate, write the envelope with [body] after it, and give
   the harness's exit code. *)
let finish o gates body =
  List.iter
    (fun g ->
      Printf.printf "gate %s: %s — %s\n" g.name
        (if g.ok then "ok" else "FAILED")
        g.detail)
    gates;
  let doc =
    Json.Obj
      ([
         ("schema", Json.String "lemur.bench/1");
         ("harness", Json.String o.harness);
         ("quick", Json.Bool o.quick);
       ]
      @ (match o.seed with Some s -> [ ("seed", Json.Int s) ] | None -> [])
      @ [
          ("jobs", Json.Int o.jobs);
          ("host_domains", Json.Int (Pool.recommended_domains ()));
          ("gates", Json.List (List.map gate_json gates));
        ]
      @ body)
  in
  match
    Out_channel.with_open_text o.out (fun oc ->
        output_string oc (Json.to_string doc);
        output_char oc '\n')
  with
  | exception Sys_error msg ->
      Printf.eprintf "bench %s: cannot write report: %s\n" o.harness msg;
      2
  | () ->
      Printf.printf "wrote %s\n" o.out;
      if List.for_all (fun g -> g.ok) gates then 0 else 1
