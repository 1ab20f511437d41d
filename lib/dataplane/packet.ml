type t = int

type pool = {
  chain : int array;
  route : int array;
  step : int array;
  flow : int array;
  bits : float array;
  t_ingress : float array;
  time : float array;
  free : int array;
  mutable n_free : int;
}

let create_pool ~capacity =
  if capacity < 1 then invalid_arg "Packet.create_pool: capacity < 1";
  let ints () = Array.make capacity 0 and floats () = Array.make capacity 0.0 in
  {
    chain = ints ();
    route = ints ();
    step = ints ();
    flow = ints ();
    bits = floats ();
    t_ingress = floats ();
    time = floats ();
    free = Array.init capacity Fun.id;
    n_free = capacity;
  }

let capacity p = Array.length p.free
let available p = p.n_free
let in_flight p = capacity p - p.n_free

let take p =
  if p.n_free = 0 then invalid_arg "Packet.take: pool exhausted";
  p.n_free <- p.n_free - 1;
  p.free.(p.n_free)

let free p pkt =
  if p.n_free >= capacity p then
    invalid_arg "Packet.free: pool overflow (double free?)";
  p.free.(p.n_free) <- pkt;
  p.n_free <- p.n_free + 1
