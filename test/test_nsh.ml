open Lemur_nsh

let test_vlan_encoding () =
  let h = { Nsh.spi = 200; si = 9 } in
  let vid = Nsh.Vlan.encode h in
  Alcotest.(check bool) "12 bits" true (vid >= 0 && vid < 4096);
  let d = Nsh.Vlan.decode vid in
  Alcotest.(check int) "spi" 200 d.Nsh.spi;
  Alcotest.(check int) "si" 9 d.Nsh.si;
  match Nsh.Vlan.encode { Nsh.spi = Nsh.Vlan.max_spi + 1; si = 0 } with
  | _ -> Alcotest.fail "spi budget"
  | exception Invalid_argument _ -> ()

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"vlan roundtrip" ~count:200
      (pair (int_range 0 Nsh.Vlan.max_spi) (int_range 0 Nsh.Vlan.max_si))
      (fun (spi, si) ->
        let d = Nsh.Vlan.decode (Nsh.Vlan.encode { Nsh.spi = spi; si }) in
        d.Nsh.spi = spi && d.Nsh.si = si);
  ]

let suite =
  [ Alcotest.test_case "VLAN vid encoding" `Quick test_vlan_encoding ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases
