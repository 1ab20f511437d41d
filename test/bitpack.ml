open Lemur_p4

let total_bits h = P4header.total_bits h

let header_bytes h =
  let bits = total_bits h in
  if bits mod 8 <> 0 then
    invalid_arg
      (Printf.sprintf "Bitpack: header %s is not byte-aligned (%d bits)"
         h.P4header.header_name bits);
  bits / 8

let set_bit b i v =
  let byte = i / 8 and bit = 7 - (i mod 8) in
  let old = Bytes.get_uint8 b byte in
  let mask = 1 lsl bit in
  Bytes.set_uint8 b byte (if v then old lor mask else old land lnot mask)

let get_bit b i =
  let byte = i / 8 and bit = 7 - (i mod 8) in
  Bytes.get_uint8 b byte land (1 lsl bit) <> 0

let write h values =
  List.iter
    (fun (name, _) ->
      if
        not
          (List.exists
             (fun f -> String.equal f.P4header.field_name name)
             h.P4header.fields)
      then
        invalid_arg
          (Printf.sprintf "Bitpack.write: %s has no field %S"
             h.P4header.header_name name))
    values;
  let b = Bytes.make (header_bytes h) '\000' in
  let offset = ref 0 in
  List.iter
    (fun f ->
      let v =
        Option.value (List.assoc_opt f.P4header.field_name values) ~default:0
      in
      (* write the low [bits] bits of v, MSB first *)
      for i = 0 to f.P4header.bits - 1 do
        let src_bit = f.P4header.bits - 1 - i in
        let bit = if src_bit >= 62 then false else v land (1 lsl src_bit) <> 0 in
        set_bit b (!offset + i) bit
      done;
      offset := !offset + f.P4header.bits)
    h.P4header.fields;
  b

let read h packet ~bit_offset =
  let need = bit_offset + total_bits h in
  if need > 8 * Bytes.length packet then
    invalid_arg
      (Printf.sprintf "Bitpack.read: packet too short for %s (%d bits needed)"
         h.P4header.header_name need);
  let offset = ref bit_offset in
  List.map
    (fun f ->
      let v = ref 0 in
      for i = 0 to f.P4header.bits - 1 do
        let src_bit = f.P4header.bits - 1 - i in
        if src_bit < 62 && get_bit packet (!offset + i) then
          v := !v lor (1 lsl src_bit)
      done;
      offset := !offset + f.P4header.bits;
      (f.P4header.field_name, !v))
    h.P4header.fields

let field h packet ~bit_offset name =
  match List.assoc_opt name (read h packet ~bit_offset) with
  | Some v -> v
  | None -> raise Not_found
