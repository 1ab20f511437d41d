(* Tests for the spine/leaf fabric layer: tenant expansion, the sharded
   placer (determinism across job counts, the infeasible-shard repair
   pass) and the fabric-level oracle's ability to reject hand-broken
   placements, mirroring the single-rack oracle mutation tests. *)
open Lemur_topology
module Shard = Lemur_placer.Shard
module Fabric_check = Lemur_check.Fabric_check

let demand ?(pinned = false) ~home ~tmin id text =
  {
    Fabric.d_id = id;
    d_tenant = id;
    d_graph = Lemur_spec.Loader.chain_of_string ~name:id text;
    d_slo = Lemur_slo.Slo.make ~t_min:tmin ~t_max:100e9 ();
    d_home = Some home;
    d_pinned = pinned;
  }

let rack ?(servers = 2) ?(uplink = 200e9) name =
  {
    Fabric.rack_name = name;
    rack = Topology.testbed ~num_servers:servers ();
    uplink_up = uplink;
    uplink_down = uplink;
  }

let placed = function
  | Shard.Placed fp -> fp
  | Shard.Infeasible { errors; _ } ->
      Alcotest.failf "fabric placement unexpectedly infeasible: %s"
        (String.concat "; " (List.map Shard.error_to_string errors))

let check_kinds fp =
  match Fabric_check.check fp with
  | Ok () -> []
  | Error vs -> List.map Fabric_check.kind_name vs

let check_has fp kind =
  let ks = check_kinds fp in
  Alcotest.(check bool)
    (Printf.sprintf "fabric oracle rejects with %s (got: %s)" kind
       (String.concat "," ks))
    true (List.mem kind ks)

let check_clean fp =
  match Fabric_check.check fp with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "fabric oracle rejected a valid placement: %a"
        (Fmt.list ~sep:Fmt.comma Fabric_check.pp_violation)
        vs

(* ------------------------------------------------------------------ *)
(* Fabric construction and tenant expansion                            *)

let test_make_validates () =
  Alcotest.check_raises "duplicate rack names" (Fabric.Invalid
    "fabric: duplicate rack name ra") (fun () ->
      ignore (Fabric.make [ rack "ra"; rack "ra" ]));
  (match Fabric.make [] with
  | exception Fabric.Invalid _ -> ()
  | _ -> Alcotest.fail "empty fabric accepted");
  let f = Fabric.make [ rack "rb"; rack "ra" ] in
  Alcotest.(check (list string))
    "racks sorted by name" [ "ra"; "rb" ] (Fabric.rack_names f);
  Alcotest.(check (float 0.0))
    "uplink lookup" 200e9
    (Fabric.uplink_capacity f "ra" `Up)

let test_expand_shares () =
  let tn =
    Fabric.tenant ~home:"ra" ~chains:7 ~name:"t" ~subscribers:1_000_000
      ~rate_per_sub:1357.0 "ACL -> NAT"
  in
  let ds = Fabric.expand [ tn ] in
  Alcotest.(check int) "7 instances" 7 (List.length ds);
  Alcotest.(check (list string))
    "instance ids"
    (List.init 7 (Printf.sprintf "t/%d"))
    (List.map (fun d -> d.Fabric.d_id) ds);
  let aggregate = 1_000_000.0 *. 1357.0 in
  Alcotest.(check bool)
    "shares sum back to the aggregate" true
    (Float.abs (Fabric.total_demand ds -. aggregate) <= 1.0);
  (* One elaboration per tenant: instances share the graph value. *)
  (match ds with
  | a :: b :: _ ->
      Alcotest.(check bool) "shared graph" true (a.Fabric.d_graph == b.Fabric.d_graph)
  | _ -> assert false);
  match Fabric.expand [ tn; tn ] with
  | exception Fabric.Invalid _ -> ()
  | _ -> Alcotest.fail "duplicate tenant names accepted"

let test_synthetic_deterministic () =
  let f = Fabric.synthetic ~racks:3 ~servers_per_rack:2 () in
  let d1 = Fabric.expand (Fabric.synthetic_tenants ~seed:7 ~tenants:5 ~chains:20 f)
  and d2 = Fabric.expand (Fabric.synthetic_tenants ~seed:7 ~tenants:5 ~chains:20 f) in
  Alcotest.(check int) "20 demands" 20 (List.length d1);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same id" a.Fabric.d_id b.Fabric.d_id;
      Alcotest.(check (float 0.0))
        "same floor" a.Fabric.d_slo.Lemur_slo.Slo.t_min
        b.Fabric.d_slo.Lemur_slo.Slo.t_min;
      Alcotest.(check (option string)) "same home" a.Fabric.d_home b.Fabric.d_home)
    d1 d2

(* ------------------------------------------------------------------ *)
(* Sharded placement                                                   *)

(* Eight 2 Gbps chains all homed on [ra] of a two-rack fabric: the
   fair-share headroom rule must spill some to [rb] as budgeted
   cross-rack chains, and the result must satisfy the fabric oracle. *)
let spill_fabric () = Fabric.make [ rack "ra"; rack "rb" ]

let spill_demands () =
  List.init 8 (fun i ->
      demand ~home:"ra" ~tmin:2e9 (Printf.sprintf "c%d" i) "ACL -> NAT")

let test_spill_cross_rack () =
  let cfg = Shard.default_config (spill_fabric ()) in
  let fp = placed (Shard.place ~jobs:1 cfg (spill_demands ())) in
  let cross =
    List.filter (fun (a : Shard.assignment) -> a.Shard.a_cross)
      fp.Shard.assignments
  in
  Alcotest.(check bool) "some chains spill cross-rack" true (cross <> []);
  List.iter
    (fun (a : Shard.assignment) ->
      Alcotest.(check string) "spilled chains serve on rb" "rb" a.Shard.a_rack)
    cross;
  check_clean fp

(* The partition proxy balances by rate per core, which is blind to how
   many cores a given rate actually costs: Encrypt runs server-only at
   roughly 2 Gbps/core, so four 8 Gbps Encrypt chains need ~16 cores —
   more than the one-server rack's 15 — while the high-rate [rb]
   fillers offload to the ToR and cost none. The fillers inflate the
   fabric-wide fair share enough that the partition leaves all four
   Encrypt chains at home, the shard comes back infeasible, and the
   repair pass must re-home chains to the big rack. *)
let test_repair_rehomes () =
  let f = Fabric.make [ rack ~servers:1 "ra"; rack ~servers:4 "rb" ] in
  let fillers =
    List.init 8 (fun i ->
        demand ~home:"rb" ~tmin:14e9 (Printf.sprintf "f%d" i) "ACL -> NAT")
  in
  let heavies =
    List.init 4 (fun i ->
        demand ~home:"ra" ~tmin:8e9 (Printf.sprintf "s%d" i) "Encrypt")
  in
  let cfg = Shard.default_config f in
  let fp = placed (Shard.place ~jobs:1 cfg (fillers @ heavies)) in
  Alcotest.(check bool) "repair pass ran" true (fp.Shard.repairs <> []);
  List.iter
    (fun (r : Shard.repair) ->
      Alcotest.(check string) "moves shed the small rack" "ra" r.Shard.rp_from;
      Alcotest.(check string) "moves land on the big rack" "rb" r.Shard.rp_to)
    fp.Shard.repairs;
  (* Re-homed chains are ordinary budgeted cross-rack chains now. *)
  List.iter
    (fun (r : Shard.repair) ->
      let a =
        List.find
          (fun (a : Shard.assignment) ->
            String.equal a.Shard.a_demand.Fabric.d_id r.Shard.rp_chain)
          fp.Shard.assignments
      in
      Alcotest.(check bool) "moved chain flagged cross-rack" true
        a.Shard.a_cross)
    fp.Shard.repairs;
  check_clean fp;
  (* With two racks able to take the shed chain, repair picks the one
     with the lower projected load: rc (two pinned fillers) over rb
     (six), although rb sorts first by name. The shed chain has the
     largest floor on ra, so partitioning keeps it home; the rest of
     ra is pinned. *)
  let f = Fabric.make [ rack ~servers:1 "ra"; rack ~servers:4 "rb"; rack ~servers:4 "rc" ] in
  let fillers home n =
    List.init n (fun i ->
        demand ~pinned:true ~home ~tmin:14e9 (Printf.sprintf "%s-f%d" home i) "ACL -> NAT")
  in
  let ra =
    demand ~home:"ra" ~tmin:9e9 "shed" "Encrypt"
    :: List.init 3 (fun i ->
           demand ~pinned:true ~home:"ra" ~tmin:8e9 (Printf.sprintf "p%d" i) "Encrypt")
  in
  let fp =
    placed
      (Shard.place ~jobs:1 (Shard.default_config f)
         (fillers "rb" 6 @ fillers "rc" 2 @ ra))
  in
  Alcotest.(check bool) "three-rack repair pass ran" true (fp.Shard.repairs <> []);
  List.iter
    (fun (r : Shard.repair) ->
      Alcotest.(check string) "moves shed the small rack" "ra" r.Shard.rp_from;
      Alcotest.(check string) "moves land on the less-loaded rack" "rc" r.Shard.rp_to)
    fp.Shard.repairs;
  check_clean fp

(* A rack of pinned chains that cannot fit and cannot move: the planner
   must give up with a typed per-shard error, not loop or lie. *)
let test_repair_stuck_when_pinned () =
  let f = Fabric.make [ rack ~servers:1 "ra"; rack ~servers:4 "rb" ] in
  let stuck =
    List.init 4 (fun i ->
        demand ~pinned:true ~home:"ra" ~tmin:8e9
          (Printf.sprintf "s%d" i)
          "Encrypt")
  in
  match Shard.place ~jobs:1 (Shard.default_config f) stuck with
  | Shard.Placed _ -> Alcotest.fail "overcommitted pinned shard placed"
  | Shard.Infeasible { errors; _ } ->
      Alcotest.(check bool) "reports the stuck shard" true
        (List.exists
           (function
             | Shard.Shard_infeasible { rack = "ra"; _ } -> true | _ -> false)
           errors)

let test_place_validates_inputs () =
  let cfg = Shard.default_config (spill_fabric ()) in
  let d = demand ~home:"ra" ~tmin:1e9 "c0" "ACL -> NAT" in
  (match Shard.place ~jobs:1 cfg [ d; d ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate demand ids accepted");
  match Shard.place ~jobs:1 cfg [ demand ~home:"nowhere" ~tmin:1e9 "c1" "NAT" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown home rack accepted"

(* ------------------------------------------------------------------ *)
(* Fabric oracle mutation tests                                        *)

let test_oracle_unbudgeted_cross () =
  let cfg = Shard.default_config (spill_fabric ()) in
  let fp = placed (Shard.place ~jobs:1 cfg (spill_demands ())) in
  let broken =
    {
      fp with
      Shard.assignments =
        List.map
          (fun (a : Shard.assignment) ->
            if a.Shard.a_cross then { a with Shard.a_cross = false } else a)
          fp.Shard.assignments;
    }
  in
  check_has broken "unbudgeted_cross_rack"

let test_oracle_uplink_overcommit () =
  let cfg = Shard.default_config (spill_fabric ()) in
  let fp = placed (Shard.place ~jobs:1 cfg (spill_demands ())) in
  (* Same racks, starved uplinks: the reserved floors now exceed what
     the fabric can carry, and the oracle must notice. *)
  let starved =
    Fabric.make [ rack ~uplink:0.1e9 "ra"; rack ~uplink:0.1e9 "rb" ]
  in
  let broken =
    { fp with Shard.config = { cfg with Shard.fabric = starved } }
  in
  check_has broken "uplink_overcommit"

let test_oracle_pinned_moved () =
  let cfg = Shard.default_config (spill_fabric ()) in
  let d = demand ~pinned:true ~home:"ra" ~tmin:1e9 "p0" "ACL -> NAT" in
  let fp = placed (Shard.place ~jobs:1 cfg [ d ]) in
  let broken =
    {
      fp with
      Shard.assignments =
        List.map
          (fun (a : Shard.assignment) ->
            { a with Shard.a_rack = "rb"; a_cross = true })
          fp.Shard.assignments;
    }
  in
  check_has broken "pinned_moved"

let test_oracle_multihomed () =
  let cfg = Shard.default_config (spill_fabric ()) in
  let fp = placed (Shard.place ~jobs:1 cfg (spill_demands ())) in
  let broken =
    {
      fp with
      Shard.rack_reports =
        List.map
          (fun (rk : Shard.rack_report) ->
            { rk with Shard.rk_chain_ids = "c0" :: rk.Shard.rk_chain_ids })
          fp.Shard.rack_reports;
    }
  in
  check_has broken "chain_multihomed"

let test_oracle_books_inconsistent () =
  let cfg = Shard.default_config (spill_fabric ()) in
  let fp = placed (Shard.place ~jobs:1 cfg (spill_demands ())) in
  let broken =
    {
      fp with
      Shard.uplink_loads =
        List.map (fun (r, up, down) -> (r, up +. 3e9, down)) fp.Shard.uplink_loads;
    }
  in
  check_has broken "uplink_loads_inconsistent"

(* ------------------------------------------------------------------ *)
(* Determinism across job counts                                       *)

let test_quick_fabric_pinned () =
  (* `bench -- scale --quick`'s fabric: 4 racks, 8 tenants -> 64 chains.
     The placement is oracle-clean, and its digest is pinned and equal
     on one domain and on two. *)
  let f = Fabric.synthetic ~racks:4 () in
  let demands =
    Fabric.expand (Fabric.synthetic_tenants ~seed:1 ~tenants:8 ~chains:64 f)
  in
  let cfg = Shard.default_config f in
  List.iter
    (fun jobs ->
      let fp = placed (Shard.place ~jobs cfg demands) in
      Alcotest.(check (list string))
        (Printf.sprintf "oracle-clean at -j %d" jobs)
        [] (check_kinds fp);
      Alcotest.(check string)
        (Printf.sprintf "digest at -j %d" jobs)
        "5166017f4760652476e7b51dd3bb136c" (Shard.digest fp))
    [ 1; 2 ]

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:6
      ~name:"sharded placement digest is byte-identical at -j 1 and -j 4"
      (make
         Gen.(
           triple (int_range 0 1000) (int_range 2 3) (int_range 12 24)))
      (fun (seed, racks, chains) ->
        let f = Fabric.synthetic ~racks ~servers_per_rack:2 () in
        let demands =
          Fabric.expand (Fabric.synthetic_tenants ~seed ~tenants:4 ~chains f)
        in
        let cfg = Shard.default_config f in
        match
          (Shard.place ~jobs:1 cfg demands, Shard.place ~jobs:4 cfg demands)
        with
        | Shard.Placed a, Shard.Placed b ->
            String.equal (Shard.digest a) (Shard.digest b)
        | Shard.Infeasible a, Shard.Infeasible b ->
            (* Same verdict, same typed errors, same repair history. *)
            List.map Shard.error_to_string a.errors
            = List.map Shard.error_to_string b.errors
            && a.repairs = b.repairs
        | _ -> false);
  ]

let suite =
  [
    Alcotest.test_case "make validates racks" `Quick test_make_validates;
    Alcotest.test_case "expand splits aggregates" `Quick test_expand_shares;
    Alcotest.test_case "synthetic tenants deterministic" `Quick
      test_synthetic_deterministic;
    Alcotest.test_case "headroom spills cross-rack" `Quick
      test_spill_cross_rack;
    Alcotest.test_case "repair re-homes infeasible shards" `Quick
      test_repair_rehomes;
    Alcotest.test_case "repair reports stuck pinned shards" `Quick
      test_repair_stuck_when_pinned;
    Alcotest.test_case "place validates inputs" `Quick
      test_place_validates_inputs;
    Alcotest.test_case "oracle: unbudgeted cross-rack" `Quick
      test_oracle_unbudgeted_cross;
    Alcotest.test_case "oracle: uplink overcommit" `Quick
      test_oracle_uplink_overcommit;
    Alcotest.test_case "oracle: pinned moved" `Quick test_oracle_pinned_moved;
    Alcotest.test_case "oracle: multihomed chain" `Quick
      test_oracle_multihomed;
    Alcotest.test_case "oracle: inconsistent books" `Quick
      test_oracle_books_inconsistent;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases
  @ [
      Alcotest.test_case "quick fabric pinned at -j 1 and -j 2" `Quick
        test_quick_fabric_pinned;
    ]
