type span = {
  span_name : string;
  span_start : float;
  span_duration : float;
  span_children : span list;
}

(* An open span: children accumulate reversed until it closes. *)
type frame = { f_name : string; f_start : float; mutable f_children : span list }

type t = {
  on : bool;
  clock : unit -> float;
  epoch : float;
  mu : Mutex.t; (* guards the intern tables and [roots] across domains *)
  counters_tbl : (string, Counter.t) Hashtbl.t;
  histograms_tbl : (string, Histogram.t) Hashtbl.t;
  stack_key : frame list ref Domain.DLS.key;
      (* open spans nest per domain: each worker gets its own stack, so
         parallel fan-out can't interleave frames across domains *)
  mutable roots : span list; (* reversed *)
}

let make ~on ~clock =
  {
    on;
    clock;
    epoch = (if on then clock () else 0.0);
    mu = Mutex.create ();
    counters_tbl = Hashtbl.create 32;
    histograms_tbl = Hashtbl.create 32;
    stack_key = Domain.DLS.new_key (fun () -> ref []);
    roots = [];
  }

let create ?(clock = Unix.gettimeofday) () = make ~on:true ~clock
let disabled = make ~on:false ~clock:(fun () -> 0.0)
let enabled t = t.on

let current_sink = ref disabled
let current () = !current_sink
let set_current t = current_sink := t

(* ------------------------------------------------------------------ *)
(* Recording *)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let counter t name =
  if not t.on then Counter.make name
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.counters_tbl name with
        | Some c -> c
        | None ->
            let c = Counter.make name in
            Hashtbl.add t.counters_tbl name c;
            c)

let histogram t ?bounds name =
  if not t.on then Histogram.make ?bounds name
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.histograms_tbl name with
        | Some h -> h
        | None ->
            let h = Histogram.make ?bounds name in
            Hashtbl.add t.histograms_tbl name h;
            h)

let with_span t name f =
  if not t.on then f ()
  else begin
    let stack = Domain.DLS.get t.stack_key in
    let frame = { f_name = name; f_start = t.clock (); f_children = [] } in
    stack := frame :: !stack;
    let close () =
      let now = t.clock () in
      (match !stack with
      | top :: rest when top == frame -> stack := rest
      | _ ->
          (* A child raised through its own close: drop frames down to
             ours so the stack cannot leak open spans. *)
          let rec unwind = function
            | top :: rest when top == frame -> rest
            | _ :: rest -> unwind rest
            | [] -> []
          in
          stack := unwind !stack);
      let span =
        {
          span_name = name;
          span_start = frame.f_start -. t.epoch;
          span_duration = Float.max 0.0 (now -. frame.f_start);
          span_children = List.rev frame.f_children;
        }
      in
      match !stack with
      | parent :: _ -> parent.f_children <- span :: parent.f_children
      | [] -> locked t (fun () -> t.roots <- span :: t.roots)
    in
    Fun.protect ~finally:close f
  end

let time t h f =
  if not t.on then f ()
  else begin
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        Histogram.record h (Float.max 0.0 (t.clock () -. t0) *. 1e9))
      f
  end

(* ------------------------------------------------------------------ *)
(* Reading *)

let sorted_values tbl name_of =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> String.compare (name_of a) (name_of b))

let counters t =
  if not t.on then []
  else locked t (fun () -> sorted_values t.counters_tbl Counter.name)

let histograms t =
  if not t.on then []
  else locked t (fun () -> sorted_values t.histograms_tbl Histogram.name)

let spans t = if not t.on then [] else locked t (fun () -> List.rev t.roots)

(* ------------------------------------------------------------------ *)
(* Output *)

let rec span_to_json s =
  Json.Obj
    [
      ("name", Json.String s.span_name);
      ("start_s", Json.Float s.span_start);
      ("duration_s", Json.Float s.span_duration);
      ("children", Json.List (List.map span_to_json s.span_children));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "lemur.telemetry/1");
      ("spans", Json.List (List.map span_to_json (spans t)));
      ("counters", Json.List (List.map Counter.to_json (counters t)));
      ("histograms", Json.List (List.map Histogram.to_json (histograms t)));
    ]

let write_json t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')
