type atom = { ref_name : string; args : Lemur_nf.Params.t option }

type element = Atom of atom | Branch of arm list

and arm = {
  conds : (string * Lemur_nf.Params.value) list;
  weight : float option;
  body : element list;
}

type pipeline = element list

type statement =
  | Decl of string * atom
  | Macro of string * Lemur_nf.Params.value
  | Subchain of { name : string; pipeline : pipeline }
  | Chain of {
      name : string;
      aggregate : Lemur_nf.Params.t option;
      slo_args : Lemur_nf.Params.t option;
      pipeline : pipeline;
    }

type t = statement list

let pp_atom ppf { ref_name; args } =
  match args with
  | None -> Format.pp_print_string ppf ref_name
  | Some ps -> Format.fprintf ppf "%s(%a)" ref_name Lemur_nf.Params.pp ps

let rec pp_element ppf = function
  | Atom a -> pp_atom ppf a
  | Branch arms ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_arm)
        arms

and pp_arm ppf { conds; weight; body } =
  let pp_cond ppf (k, v) =
    Format.fprintf ppf "'%s': %a" k Lemur_nf.Params.pp_value v
  in
  Format.pp_print_string ppf "{";
  let printed = ref false in
  List.iter
    (fun c ->
      if !printed then Format.pp_print_string ppf ", ";
      pp_cond ppf c;
      printed := true)
    conds;
  (match weight with
  | Some w ->
      if !printed then Format.pp_print_string ppf ", ";
      Format.fprintf ppf "'weight': %g" w;
      printed := true
  | None -> ());
  if body <> [] then begin
    if !printed then Format.pp_print_string ppf ", ";
    pp_pipeline ppf body
  end;
  Format.pp_print_string ppf "}"

and pp_pipeline ppf pipeline =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
    pp_element ppf pipeline
