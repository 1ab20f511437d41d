type t = { spi : int; si : int }

module Vlan = struct
  let si_bits = 4
  let vid_bits = 12
  let max_si = (1 lsl si_bits) - 1
  let max_spi = (1 lsl (vid_bits - si_bits)) - 1

  let encode { spi; si } =
    if spi < 0 || spi > max_spi then invalid_arg "Nsh.Vlan.encode: spi";
    if si < 0 || si > max_si then invalid_arg "Nsh.Vlan.encode: si";
    (spi lsl si_bits) lor si

  let decode vid = { spi = vid lsr si_bits; si = vid land max_si }
end
