open Lemur_util

type t = { rs_seed : int; rs_rules : Rule.t array }

let default_seed = 0x5EED

let size t = Array.length t.rs_rules
let rules t = t.rs_rules

let well_known = [| 22; 25; 53; 80; 110; 123; 443; 8080 |]
let protos = [| 6; 17; 1 |]

(* An IPv4 prefix as a closed interval. Half the bases are drawn fresh
   (distinct, mostly-disjoint intervals — what lets a computed index
   absorb large iSets, as in real ClassBench ACL seeds), half come from
   a small shared pool so prefixes still repeat, overlap and nest — the
   structure tuple-space search has to cope with. Long prefixes
   dominate, as they do in real ACLs. *)
let plens = [| 16; 20; 24; 24; 28; 28; 32; 32 |]

let gen_prefix rng pool ~wildcard_pct =
  if Prng.int rng 100 < wildcard_pct then (0, 0xFFFFFFFF, 0)
  else begin
    let base =
      if Prng.bool rng then Int64.to_int (Prng.bits64 rng) land 0xFFFFFFFF
      else Prng.choose rng pool
    in
    let plen = Prng.choose rng plens in
    let shift = 32 - plen in
    (* [lsr]/[lsl] are right-associative: group explicitly. *)
    let lo = (base lsr shift) lsl shift in
    (lo, lo lor ((1 lsl shift) - 1), plen)
  end

let gen_port rng ~any_pct ~exact_pct =
  let r = Prng.int rng 100 in
  if r < any_pct then (0, 65535)
  else if r < any_pct + exact_pct then begin
    let p =
      if Prng.bool rng then Prng.choose rng well_known
      else Prng.int rng 65536
    in
    (p, p)
  end
  else if Prng.bool rng then (1024, 65535)
  else begin
    let a = Prng.int rng 65536 and b = Prng.int rng 65536 in
    (min a b, max a b)
  end

let generate ?(seed = default_seed) ~size () =
  if size < 0 then invalid_arg "Ruleset.generate: size < 0";
  let rng = Prng.create ~seed:(seed + (31 * size)) in
  let pool_n = max 4 (int_of_float (sqrt (float_of_int size))) in
  let pool () =
    Array.init pool_n (fun _ -> Int64.to_int (Prng.bits64 rng) land 0xFFFFFFFF)
  in
  let src_pool = pool () and dst_pool = pool () in
  let rules =
    Array.init size (fun id ->
        let src_lo, src_hi, src_plen =
          gen_prefix rng src_pool ~wildcard_pct:5
        in
        let dst_lo, dst_hi, dst_plen =
          gen_prefix rng dst_pool ~wildcard_pct:2
        in
        let sport_lo, sport_hi = gen_port rng ~any_pct:60 ~exact_pct:20 in
        let dport_lo, dport_hi = gen_port rng ~any_pct:20 ~exact_pct:50 in
        let proto =
          if Prng.int rng 100 < 10 then None else Some (Prng.choose rng protos)
        in
        let action = if Prng.int rng 100 < 80 then Rule.Permit else Rule.Deny in
        {
          Rule.id;
          src_lo;
          src_hi;
          src_plen;
          dst_lo;
          dst_hi;
          dst_plen;
          sport_lo;
          sport_hi;
          dport_lo;
          dport_hi;
          proto;
          action;
        })
  in
  { rs_seed = seed; rs_rules = rules }

let header_of_flow t flow =
  let n = Array.length t.rs_rules in
  let rng =
    Prng.create ~seed:(t.rs_seed lxor (0x27D4EB2F * (flow + 1)) + n)
  in
  if n > 0 && Prng.int rng 100 < 70 then begin
    (* Aim inside one rule's hyperrectangle; a higher-priority rule may
       still shadow it, which is exactly the overlap case the
       differential tests need covered. *)
    let r = t.rs_rules.(Prng.int rng n) in
    let within lo hi = if hi <= lo then lo else lo + Prng.int rng (hi - lo + 1) in
    {
      Rule.src = within r.Rule.src_lo r.Rule.src_hi;
      dst = within r.Rule.dst_lo r.Rule.dst_hi;
      sport = within r.Rule.sport_lo r.Rule.sport_hi;
      dport = within r.Rule.dport_lo r.Rule.dport_hi;
      proto =
        (match r.Rule.proto with
        | Some p -> p
        | None -> Prng.choose rng protos);
    }
  end
  else
    {
      Rule.src = Int64.to_int (Prng.bits64 rng) land 0xFFFFFFFF;
      dst = Int64.to_int (Prng.bits64 rng) land 0xFFFFFFFF;
      sport = Prng.int rng 65536;
      dport = Prng.int rng 65536;
      proto = (if Prng.bool rng then Prng.choose rng protos else 47);
    }

let headers t ~flows = Array.init flows (header_of_flow t)
