type job_error = { job_index : int; message : string; backtrace : string }

let error_to_string e =
  Printf.sprintf "item %d: %s" e.job_index e.message

(* Every executor, the calling domain included, flags itself while it
   works, so a nested [map] (e.g. the Optimal strategy's candidate map
   inside a fuzz item) runs inline instead of spawning more domains. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let hard_cap = 64
let clamp n = max 1 (min hard_cap n)
let recommended_domains () = clamp (Domain.recommended_domain_count ())
let default_domains = ref 1
let set_default n = default_domains := clamp n
let get_default () = !default_domains

let capture_error i exn =
  {
    job_index = i;
    message = Printexc.to_string exn;
    backtrace = Printexc.get_backtrace ();
  }

let seq_map f xs =
  List.mapi (fun i x -> try Ok (f x) with exn -> capture_error i exn |> Result.error) xs

(* Fork-join: each call spawns its own helpers and joins them before it
   returns. The caller and the helpers claim indices one at a time off a
   shared counter, so a straggler holds one item while the others drain
   the rest, and results land in per-index slots, which keeps the output
   (and every digest downstream) byte-identical at any [-j]. *)
let fork_join ~executors f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let work () =
    Domain.DLS.set in_worker true;
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some (try Ok (f items.(i)) with exn -> Error (capture_error i exn));
        claim ()
      end
    in
    claim ()
  in
  let helpers =
    List.init (min (executors - 1) (n - 1)) (fun _ -> Domain.spawn work)
  in
  work ();
  Domain.DLS.set in_worker false;
  (* The joins order every helper's slot writes before these reads. *)
  List.iter Domain.join helpers;
  Array.to_list (Array.map Option.get results)

let map ?domains f xs =
  let domains = clamp (Option.value domains ~default:(get_default ())) in
  if domains <= 1 || List.compare_length_with xs 1 <= 0 || Domain.DLS.get in_worker
  then seq_map f xs
  else fork_join ~executors:domains f xs

let all results =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Ok x :: rest -> go (x :: acc) rest
    | Error e :: _ -> Error e
  in
  go [] results
