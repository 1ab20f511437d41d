type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | List of value list
  | Dict of (string * value) list
  | Ref of string

type t = (string * value) list

let empty = []
let find params key = List.assoc_opt key params

let find_int params key =
  match find params key with Some (Int n) -> Some n | _ -> None

let find_str params key =
  match find params key with Some (Str s) -> Some s | _ -> None

exception Invalid_size of { key : string; value : int }

let table_size kind params =
  let count_of key =
    match find params key with
    | Some (Int n) ->
        (* A literal count: [ACL(rules=4096)].  A negative count has no
           list form it could abbreviate, so reject it here rather than
           letting it reach a table builder as a bogus size. *)
        if n < 0 then raise (Invalid_size { key; value = n });
        Some n
    | Some (List items) -> Some (List.length items)
    | _ -> None
  in
  match kind with
  | Kind.Acl -> count_of "rules"
  | Kind.Nat -> count_of "entries"
  | Kind.Monitor -> count_of "flows"
  | Kind.Lb -> count_of "backends"
  | _ -> None

let rec pp_value ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.pp_print_float ppf f
  | Str s -> Format.fprintf ppf "'%s'" s
  | Bool true -> Format.pp_print_string ppf "True"
  | Bool false -> Format.pp_print_string ppf "False"
  | List items ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_value)
        items
  | Dict fields ->
      let pp_field ppf (k, v) = Format.fprintf ppf "'%s': %a" k pp_value v in
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_field)
        fields
  | Ref name -> Format.pp_print_string ppf name

let pp ppf params =
  let pp_binding ppf (k, v) = Format.fprintf ppf "%s=%a" k pp_value v in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_binding ppf params
