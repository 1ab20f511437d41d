type path_info = {
  spi : int;
  chain_id : string;
  nodes : Lemur_spec.Graph.node_id list;
  fraction : float;
}

type t = { path_list : path_info list }

let assign plans =
  let next_spi = ref 1 in
  let path_list =
    List.concat_map
      (fun plan ->
        let open Lemur_placer in
        let chain_id = plan.Plan.input.Plan.id in
        List.map
          (fun p ->
            let spi = !next_spi in
            incr next_spi;
            {
              spi;
              chain_id;
              nodes = p.Lemur_spec.Graph.path_nodes;
              fraction = p.Lemur_spec.Graph.fraction;
            })
          (Lemur_spec.Graph.linearize plan.Plan.input.Plan.graph))
      plans
  in
  { path_list }

let paths t = t.path_list

let spi_count t = List.length t.path_list

let paths_of_chain t chain_id =
  List.filter (fun p -> String.equal p.chain_id chain_id) t.path_list
