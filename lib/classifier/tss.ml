type tuple = {
  tp_src_plen : int;
  tp_dst_plen : int;
  tp_proto_exact : bool;
  tp_min_id : int;
  tp_tbl : (int * int * int, Rule.t list) Hashtbl.t;
}

type t = { tuples : tuple array }

(* [lsl]/[lsr] are right-associative, so the two shifts need explicit
   grouping. *)
let mask v plen = if plen = 0 then 0 else (v lsr (32 - plen)) lsl (32 - plen)

let key_of src dst plen_src plen_dst proto_exact proto =
  (mask src plen_src, mask dst plen_dst, if proto_exact then proto else 0)

let build rules =
  let groups : (int * int * bool, Rule.t list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iter
    (fun (r : Rule.t) ->
      let k = (r.Rule.src_plen, r.Rule.dst_plen, r.Rule.proto <> None) in
      match Hashtbl.find_opt groups k with
      | Some l -> l := r :: !l
      | None -> Hashtbl.replace groups k (ref [ r ]))
    rules;
  let tuples =
    Hashtbl.fold
      (fun (sp, dp, pe) rs acc ->
        let tbl = Hashtbl.create (max 16 (List.length !rs)) in
        let min_id = ref max_int in
        List.iter
          (fun (r : Rule.t) ->
            if r.Rule.id < !min_id then min_id := r.Rule.id;
            let k =
              key_of r.Rule.src_lo r.Rule.dst_lo sp dp pe
                (Option.value r.Rule.proto ~default:0)
            in
            let bucket = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
            Hashtbl.replace tbl k (r :: bucket))
          !rs;
        (* Buckets in priority order so a bucket scan can stop at its
           first full match. *)
        Hashtbl.filter_map_inplace
          (fun _ bucket ->
            Some (List.sort (fun (a : Rule.t) b -> compare a.Rule.id b.Rule.id) bucket))
          tbl;
        {
          tp_src_plen = sp;
          tp_dst_plen = dp;
          tp_proto_exact = pe;
          tp_min_id = !min_id;
          tp_tbl = tbl;
        }
        :: acc)
      groups []
  in
  let tuples =
    List.sort (fun a b -> compare a.tp_min_id b.tp_min_id) tuples
  in
  { tuples = Array.of_list tuples }

let tuples t = Array.length t.tuples

let classify t (h : Rule.header) =
  let best = ref None in
  let probes = ref 0 and entries = ref 0 in
  let best_id () = match !best with Some (r : Rule.t) -> r.Rule.id | None -> max_int in
  (try
     Array.iter
       (fun tp ->
         if best_id () < tp.tp_min_id then raise Exit;
         incr probes;
         let k =
           key_of h.Rule.src h.Rule.dst tp.tp_src_plen tp.tp_dst_plen
             tp.tp_proto_exact h.Rule.proto
         in
         match Hashtbl.find_opt tp.tp_tbl k with
         | None -> ()
         | Some bucket ->
             (try
                List.iter
                  (fun (r : Rule.t) ->
                    if r.Rule.id >= best_id () then raise Exit;
                    incr entries;
                    if Rule.matches r h then begin
                      best := Some r;
                      raise Exit
                    end)
                  bucket
              with Exit -> ()))
       t.tuples
   with Exit -> ());
  (!best, !probes, !entries)
