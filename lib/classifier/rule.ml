type action = Permit | Deny

type t = {
  id : int;
  src_lo : int;
  src_hi : int;
  src_plen : int;
  dst_lo : int;
  dst_hi : int;
  dst_plen : int;
  sport_lo : int;
  sport_hi : int;
  dport_lo : int;
  dport_hi : int;
  proto : int option;
  action : action;
}

type header = { src : int; dst : int; sport : int; dport : int; proto : int }

let matches r h =
  h.src >= r.src_lo && h.src <= r.src_hi
  && h.dst >= r.dst_lo && h.dst <= r.dst_hi
  && h.sport >= r.sport_lo && h.sport <= r.sport_hi
  && h.dport >= r.dport_lo && h.dport <= r.dport_hi
  && match r.proto with None -> true | Some p -> h.proto = p

let corner r =
  {
    src = r.src_lo;
    dst = r.dst_lo;
    sport = r.sport_lo;
    dport = r.dport_lo;
    proto = (match r.proto with Some p -> p | None -> 6);
  }
