type field = { field_name : string; bits : int }

type t = { header_name : string; fields : field list }

let header name fields =
  {
    header_name = name;
    fields = List.map (fun (field_name, bits) -> { field_name; bits }) fields;
  }

let ethernet =
  header "ethernet" [ ("dst_addr", 48); ("src_addr", 48); ("ether_type", 16) ]

let vlan = header "vlan" [ ("pcp", 3); ("dei", 1); ("vid", 12); ("ether_type", 16) ]

(* RFC 8300 base header + MD type 1 context. *)
let nsh =
  header "nsh"
    [
      ("version", 2); ("o_bit", 1); ("u_bit", 1); ("ttl", 6); ("length", 6);
      ("reserved", 4); ("md_type", 4); ("next_proto", 8); ("spi", 24); ("si", 8);
      ("context", 128);
    ]

let ipv4 =
  header "ipv4"
    [
      ("version", 4); ("ihl", 4); ("dscp", 6); ("ecn", 2); ("total_len", 16);
      ("identification", 16); ("flags", 3); ("frag_offset", 13); ("ttl", 8);
      ("protocol", 8); ("hdr_checksum", 16); ("src_addr", 32); ("dst_addr", 32);
    ]

let tcp =
  header "tcp"
    [
      ("src_port", 16); ("dst_port", 16); ("seq_no", 32); ("ack_no", 32);
      ("data_offset", 4); ("reserved", 4); ("flags", 8); ("window", 16);
      ("checksum", 16); ("urgent_ptr", 16);
    ]

let udp =
  header "udp"
    [ ("src_port", 16); ("dst_port", 16); ("length", 16); ("checksum", 16) ]

let standard_library = [ ethernet; vlan; nsh; ipv4; tcp; udp ]

let extensions : (string, t) Hashtbl.t = Hashtbl.create 8

let lookup name =
  match List.find_opt (fun h -> String.equal h.header_name name) standard_library with
  | Some h -> Some h
  | None -> Hashtbl.find_opt extensions name

let register h =
  match lookup h.header_name with
  | None -> Hashtbl.replace extensions h.header_name h
  | Some existing ->
      if existing = h then ()
      else
        invalid_arg
          (Printf.sprintf "P4header.register: conflicting layout for %S"
             h.header_name)

let total_bits t = List.fold_left (fun acc f -> acc + f.bits) 0 t.fields
