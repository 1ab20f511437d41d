open Lemur_openflow
open Lemur_nf

let sw = Lemur_platform.Ofswitch.edgecore_as5712

let test_check_placeable () =
  Openflow.check_placeable sw [ Kind.Acl; Kind.Ipv4_fwd ];
  (match Openflow.check_placeable sw [ Kind.Nat ] with
  | _ -> Alcotest.fail "NAT has no OF table"
  | exception Openflow.Unplaceable _ -> ());
  match Openflow.check_placeable sw [ Kind.Ipv4_fwd; Kind.Acl ] with
  | _ -> Alcotest.fail "order violation"
  | exception Openflow.Unplaceable _ -> ()

let test_steering_rules () =
  let rules = Openflow.steering_rules ~spi:5 ~entry_si:10 [ Kind.Acl; Kind.Ipv4_fwd ] in
  Alcotest.(check int) "one rule per NF" 2 (List.length rules);
  let first = List.hd rules in
  let expected_vid = Openflow.Vlan.encode { spi = 5; si = 10 } in
  Alcotest.(check (option int)) "vid match" (Some expected_vid) first.Openflow.match_vid;
  (* each rule rewrites the vid for the next hop *)
  List.iteri
    (fun i rule ->
      let next = Openflow.Vlan.encode { spi = 5; si = 10 - i - 1 } in
      Alcotest.(check bool)
        (Printf.sprintf "rule %d sets next vid" i)
        true
        (List.exists
           (function Openflow.Set_vid { vid } -> vid = next | _ -> false)
           rule.Openflow.actions))
    rules

let test_compile () =
  let program =
    Openflow.compile sw [ (1, 5, [ Kind.Acl ]); (2, 5, [ Kind.Monitor; Kind.Ipv4_fwd ]) ]
  in
  Alcotest.(check int) "3 rules" 3 (Openflow.rule_count program);
  let text = Format.asprintf "%a" Openflow.pp program in
  Alcotest.(check bool) "renders" true (String.length text > 50)

let test_compile_order_violation () =
  match Openflow.compile sw [ (1, 5, [ Kind.Detunnel; Kind.Acl ]) ] with
  | _ -> Alcotest.fail "order violation"
  | exception Openflow.Unplaceable _ -> ()

let test_vlan_encoding () =
  let vid = Openflow.Vlan.encode { spi = 200; si = 9 } in
  Alcotest.(check bool) "12 bits" true (vid >= 0 && vid < 4096);
  let d = Openflow.Vlan.decode vid in
  Alcotest.(check int) "spi" 200 d.spi;
  Alcotest.(check int) "si" 9 d.si;
  match Openflow.Vlan.encode { spi = Openflow.Vlan.max_spi + 1; si = 0 } with
  | _ -> Alcotest.fail "spi budget"
  | exception Invalid_argument _ -> ()

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"vlan roundtrip" ~count:200
      (pair (int_range 0 Openflow.Vlan.max_spi) (int_range 0 Openflow.Vlan.max_si))
      (fun (spi, si) ->
        let d = Openflow.Vlan.(decode (encode { spi; si })) in
        d.spi = spi && d.si = si);
  ]

let suite =
  [
    Alcotest.test_case "placeability" `Quick test_check_placeable;
    Alcotest.test_case "steering rules" `Quick test_steering_rules;
    Alcotest.test_case "compile program" `Quick test_compile;
    Alcotest.test_case "compile rejects bad order" `Quick test_compile_order_violation;
    Alcotest.test_case "VLAN vid encoding" `Quick test_vlan_encoding;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases
