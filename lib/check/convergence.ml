module Engine = Lemur_dataplane.Engine
module Sim = Lemur_dataplane.Sim
module Units = Lemur_util.Units

type divergence =
  | Throughput_mismatch of {
      chain : string;
      engine : float;
      sim : float;
      tolerance : float;
    }
  | Latency_blowup of {
      chain : string;
      engine_p99 : float;
      sim_p99 : float;
      limit : float;
    }
  | Conservation_violation of {
      chain : string;
      injected : int;
      delivered : int;
      dropped : int;
      in_flight : int;
    }

let pp_divergence ppf = function
  | Throughput_mismatch { chain; engine; sim; tolerance } ->
      Fmt.pf ppf "%s: engine delivered %a, sim %a (tolerance %a)" chain
        Units.pp_rate engine Units.pp_rate sim Units.pp_rate tolerance
  | Latency_blowup { chain; engine_p99; sim_p99; limit } ->
      Fmt.pf ppf "%s: engine p99 latency %.1f us blows past sim %.1f us (limit %.1f us)"
        chain (Units.to_us engine_p99) (Units.to_us sim_p99) (Units.to_us limit)
  | Conservation_violation { chain; injected; delivered; dropped; in_flight } ->
      Fmt.pf ppf
        "%s: packet conservation violated: injected %d <> delivered %d + dropped \
         %d + in-flight %d"
        chain injected delivered dropped in_flight

type verdict = { compared : int; exempt : int; divergences : divergence list }

let rel_tol = 0.05
let latency_slack = Units.ms 1.0

(* At 32 x 1500 B batches over a ~20 ms window the simulator resolves
   rates in ~20 Mbit/s steps; chains offered less than this would fail
   any rate comparison on measurement granularity, not on bugs. *)
let sim_floor_threshold = 100e6

(* Sim counts whole 32-packet batches over its window and the engine
   counts packets over its own, so measured rates quantize in
   per-executor steps; two steps of slack each keeps a rate sitting
   near a quantum boundary from flagging on rounding. *)
let quantization ~pkt_bytes ~(engine : Engine.result) ~(sim : Sim.result) =
  let pkt_bits = Units.bytes_to_bits pkt_bytes in
  let batch_bits = pkt_bits *. 32.0 in
  (2.0 *. batch_bits /. sim.Sim.duration *. 1e9)
  +. (2.0 *. pkt_bits /. engine.Engine.duration *. 1e9)

let check ~pkt_bytes ~engine ~sim () =
  let quant = quantization ~pkt_bytes ~engine ~sim in
  let compared = ref 0 in
  let exempt = ref 0 in
  let divergences = ref [] in
  let flag d = divergences := d :: !divergences in
  List.iter
    (fun (ec : Engine.chain_result) ->
      let chain = ec.Engine.chain_id in
      if
        ec.Engine.injected_pkts
        <> ec.Engine.delivered_pkts + ec.Engine.dropped_pkts
           + ec.Engine.in_flight_pkts
      then
        flag
          (Conservation_violation
             {
               chain;
               injected = ec.Engine.injected_pkts;
               delivered = ec.Engine.delivered_pkts;
               dropped = ec.Engine.dropped_pkts;
               in_flight = ec.Engine.in_flight_pkts;
             });
      match
        List.find_opt (fun (sc : Sim.chain_result) -> sc.Sim.chain_id = chain)
          sim.Sim.chains
      with
      | None -> ()
      | Some sc ->
          if ec.Engine.offered < sim_floor_threshold then
            incr exempt
          else begin
            incr compared;
            let tolerance =
              (rel_tol *. Float.max ec.Engine.delivered sc.Sim.delivered)
              +. quant
            in
            (* Sim's per-batch service sampling has 32x the engine's
               variance, so near critical utilization Sim sheds a few
               percent at its queue caps where the engine keeps up.
               Those drops are visible in Sim's own counters: the
               engine may out-deliver Sim by at most what Sim admits
               to having dropped. Below Sim the tolerance stays tight
               — an engine shortfall is how capacity bugs look. *)
            let sim_dropped_rate =
              float_of_int sc.Sim.batches_dropped
              *. Units.bytes_to_bits pkt_bytes *. 32.0 /. sim.Sim.duration
              *. 1e9
            in
            if
              ec.Engine.delivered < sc.Sim.delivered -. tolerance
              || ec.Engine.delivered
                 > sc.Sim.delivered +. sim_dropped_rate +. tolerance
            then
              flag
                (Throughput_mismatch
                   {
                     chain;
                     engine = ec.Engine.delivered;
                     sim = sc.Sim.delivered;
                     tolerance = tolerance +. sim_dropped_rate;
                   });
            let limit = sc.Sim.p99_latency +. latency_slack in
            if ec.Engine.p99_latency > limit then
              flag
                (Latency_blowup
                   {
                     chain;
                     engine_p99 = ec.Engine.p99_latency;
                     sim_p99 = sc.Sim.p99_latency;
                     limit;
                   })
          end)
    engine.Engine.chains;
  { compared = !compared; exempt = !exempt; divergences = List.rev !divergences }

let ok v = v.divergences = []
