let gbps x = x *. 1e9
let to_gbps x = x /. 1e9
let ghz x = x *. 1e9
let us x = x *. 1e3
let ms x = x *. 1e6
let to_us x = x /. 1e3
let bytes_to_bits b = float_of_int (8 * b)
let pps_of_bps ~pkt_bytes r = r /. bytes_to_bits pkt_bytes
let bps_of_pps ~pkt_bytes r = r *. bytes_to_bits pkt_bytes

let exact_string x =
  let s = Printf.sprintf "%.12g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let pp_rate ppf r =
  if r >= 1e9 then Format.fprintf ppf "%.2f Gbps" (r /. 1e9)
  else if r >= 1e6 then Format.fprintf ppf "%.2f Mbps" (r /. 1e6)
  else if r >= 1e3 then Format.fprintf ppf "%.2f Kbps" (r /. 1e3)
  else Format.fprintf ppf "%.0f bps" r
