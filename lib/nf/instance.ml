type t = { name : string; kind : Kind.t; params : Params.t }

let make ?name ?(params = Params.empty) kind =
  let name = match name with Some n -> n | None -> Kind.name kind in
  { name; kind; params }

let state_size t = Params.table_size t.kind t.params
