open Lemur_placer

type entry = { e_spi : int; e_si : int; next_spi : int; next_si : int; port : string }

type classification = {
  chain_id : string;
  path : int;
  to_spi : int;
  to_si : int;
  to_port : string;
}

type table = {
  entries : entry list;
  index : (int * int, entry) Hashtbl.t;
  classifications : classification list;
}

(* The two entry forms P4gen emits into the steering table:
     /* entry */ set (spi=S, si=I) -> steer(S', I', port);
     /* entry */ classify (aggregate=<chain>/path<S>) -> steer(S, len, pipeline);
   Scanf matches a format's literal characters exactly: only a space in
   a format skips blanks, and it may match none, so
   "/*entry*/set(spi=1,si=2)->..." parses too. Both formats open with
   "/*", so a line whose trimmed text does not start with "/*" can never
   parse; [parse] skips it without reaching Scanf. Likewise a line
   without "(spi=" cannot be a [set] entry, and one without
   "(aggregate=" cannot be a [classify] entry. *)
let set_entry line =
  Scanf.sscanf line "/* entry */ set (spi=%d, si=%d) -> steer(%d, %d, %s@)"
    (fun a b c d p -> { e_spi = a; e_si = b; next_spi = c; next_si = d; port = p })

let classify_entry line =
  Scanf.sscanf line "/* entry */ classify (aggregate=%s@/path%d) -> steer(%d, %d, %s@)"
    (fun chain_id path s i p -> { chain_id; path; to_spi = s; to_si = i; to_port = p })

let contains line word =
  let n = String.length line and m = String.length word in
  let rec matches_at i j = j = m || (line.[i + j] = word.[j] && matches_at i (j + 1)) in
  let rec from i = i + m <= n && (matches_at i 0 || from (i + 1)) in
  from 0

(* [scan line word f] is [f line], or [None] when [line] lacks [word]
   or [f] rejects it. *)
let scan line word f =
  if not (contains line word) then None
  else
    match f line with
    | r -> Some r
    | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None

let is_blank = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false

let parse source =
  let index = Hashtbl.create 64 in
  let entries = ref [] and classifications = ref [] in
  let n = String.length source in
  let rec lines start =
    if start <= n then begin
      let stop = Option.value (String.index_from_opt source start '\n') ~default:n in
      let first = ref start in
      while !first < stop && is_blank source.[!first] do incr first done;
      if !first + 1 < stop && source.[!first] = '/' && source.[!first + 1] = '*' then begin
        let line = String.trim (String.sub source !first (stop - !first)) in
        match scan line "(spi=" set_entry with
        | Some e ->
            entries := e :: !entries;
            (* the first entry for a key wins, as in a linear search *)
            if not (Hashtbl.mem index (e.e_spi, e.e_si)) then
              Hashtbl.add index (e.e_spi, e.e_si) e
        | None ->
            Option.iter
              (fun c -> classifications := c :: !classifications)
              (scan line "(aggregate=" classify_entry)
      end;
      lines (stop + 1)
    end
  in
  lines 0;
  { entries = List.rev !entries; index; classifications = List.rev !classifications }

let entries t = t.entries
let classifications t = t.classifications
let find t ~spi ~si = Hashtbl.find_opt t.index (spi, si)

let expected_port loc =
  match loc with
  | Plan.Switch -> "pipeline"
  | Plan.Server -> "server_port"
  | Plan.Smartnic -> "nic_port"
  | Plan.Ofswitch -> "ofswitch_port"

let verify placement artifact =
  match artifact.Codegen.p4 with
  | None -> Ok () (* nothing on the switch: no steering table exists *)
  | Some p4 ->
      let table = parse p4.P4gen.source in
      let check_classify chain_id path len =
        let spi = path.Spi.spi in
        match
          List.filter
            (fun c -> String.equal c.chain_id chain_id && c.path = spi)
            table.classifications
        with
        | [ c ] when c.to_spi = spi && c.to_si = len && String.equal c.to_port "pipeline" ->
            Ok ()
        | [ c ] ->
            Error
              (Printf.sprintf "spi %d: %s classified to (%d, %d, %s), expected (%d, %d, pipeline)"
                 spi chain_id c.to_spi c.to_si c.to_port spi len)
        | cs ->
            Error
              (Printf.sprintf "spi %d: %d classify entries for %s, expected 1" spi
                 (List.length cs) chain_id)
      in
      let check_path (report : Strategy.chain_report) path =
        let nodes = path.Spi.nodes in
        let len = List.length nodes in
        let rec walk si = function
          | [] -> (
              (* all NFs done: the SI-0 entry must steer to egress *)
              match find table ~spi:path.Spi.spi ~si:0 with
              | Some { port = "egress_port"; _ } -> Ok ()
              | Some e ->
                  Error
                    (Printf.sprintf "spi %d: terminal entry steers to %s" path.Spi.spi
                       e.port)
              | None ->
                  Error (Printf.sprintf "spi %d: missing egress entry" path.Spi.spi))
          | node :: rest -> (
              match find table ~spi:path.Spi.spi ~si with
              | None ->
                  Error
                    (Printf.sprintf "spi %d: no steering entry at si %d" path.Spi.spi si)
              | Some e ->
                  let want = expected_port report.Strategy.plan.Plan.locs.(node) in
                  if not (String.equal e.port want) then
                    Error
                      (Printf.sprintf
                         "spi %d si %d: steered to %s, expected %s (NF %s)"
                         path.Spi.spi si e.port want
                         (Lemur_spec.Graph.node
                            report.Strategy.plan.Plan.input.Plan.graph node)
                           .Lemur_spec.Graph.instance
                           .Lemur_nf.Instance.name)
                  else if e.next_spi <> path.Spi.spi then
                    Error
                      (Printf.sprintf "spi %d si %d: jumps to spi %d" path.Spi.spi si
                         e.next_spi)
                  else if e.next_si <> si - 1 then
                    Error
                      (Printf.sprintf
                         "spi %d si %d: SI advances to %d instead of %d"
                         path.Spi.spi si e.next_si (si - 1))
                  else walk (si - 1) rest)
        in
        match check_classify report.Strategy.plan.Plan.input.Plan.id path len with
        | Ok () -> walk len nodes
        | Error _ as e -> e
      in
      let rec check_all = function
        | [] -> Ok ()
        | report :: rest ->
            let paths =
              Spi.paths_of_chain artifact.Codegen.spi
                report.Strategy.plan.Plan.input.Plan.id
            in
            let rec go = function
              | [] -> check_all rest
              | path :: more -> (
                  match check_path report path with
                  | Ok () -> go more
                  | Error _ as e -> e)
            in
            go paths
      in
      check_all placement.Strategy.chain_reports
