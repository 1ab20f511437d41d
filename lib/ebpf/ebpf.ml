type instr =
  | Alu of string
  | Load of { stack_bytes : int }
  | Store of { stack_bytes : int }
  | Branch of { skip : int }
  | Loop of { iterations : int; body : instr list }
  | Call of string
  | Exit

type func = { fname : string; body : instr list }

type program = { name : string; main : instr list; functions : func list }

let rec count_instrs instrs =
  List.fold_left
    (fun acc i ->
      acc
      +
      match i with
      | Loop { body; _ } -> 1 + count_instrs body
      | Alu _ | Load _ | Store _ | Branch _ | Call _ | Exit -> 1)
    0 instrs

let instruction_count p = count_instrs p.main

let rec unroll body =
  List.concat_map
    (fun i ->
      match i with
      | Loop { iterations; body = inner } ->
          let unrolled = unroll inner in
          List.concat (List.init iterations (fun _ -> unrolled))
      | Alu _ | Load _ | Store _ | Branch _ | Call _ | Exit -> [ i ])
    body

let unroll_loops p =
  {
    p with
    main = unroll p.main;
    functions = List.map (fun f -> { f with body = unroll f.body }) p.functions;
  }

let inline_calls p =
  let find fname =
    match List.find_opt (fun f -> String.equal f.fname fname) p.functions with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Ebpf.inline_calls: unknown function %S" fname)
  in
  let rec expand stack instrs =
    List.concat_map
      (fun i ->
        match i with
        | Call fname ->
            if List.mem fname stack then
              invalid_arg
                (Printf.sprintf "Ebpf.inline_calls: recursion through %S" fname)
            else expand (fname :: stack) (find fname).body
        | Loop { iterations; body } ->
            [ Loop { iterations; body = expand stack body } ]
        | Alu _ | Load _ | Store _ | Branch _ | Exit -> [ i ])
      instrs
  in
  { p with main = expand [] p.main; functions = [] }

let lower p = unroll_loops (inline_calls p)

(* Bytes of stack reserved along [main]: the sum of all Load/Store
   reservations (lowered programs have no calls). *)
let stack_usage p =
  let rec go instrs =
    List.fold_left
      (fun acc i ->
        acc
        +
        match i with
        | Load { stack_bytes } | Store { stack_bytes } -> stack_bytes
        | Loop { body; _ } -> go body (* slots reused across iterations *)
        | Alu _ | Branch _ | Call _ | Exit -> 0)
      0 instrs
  in
  go p.main

module Verifier = struct
  type violation =
    | Too_many_instructions of { count : int; limit : int }
    | Stack_overflow of { bytes : int; limit : int }
    | Backward_jump
    | Function_call of string

  let rec structural_violations allows instrs =
    List.concat_map
      (fun i ->
        match i with
        | Loop { body; _ } ->
            (if allows.(0) then [] else [ Backward_jump ])
            @ structural_violations allows body
        | Call f -> if allows.(1) then [] else [ Function_call f ]
        | Alu _ | Load _ | Store _ | Branch _ | Exit -> [])
      instrs

  let check (nic : Lemur_platform.Smartnic.t) p =
    let open Lemur_platform.Smartnic in
    let count = instruction_count p in
    let violations = ref [] in
    if count > nic.max_instructions then
      violations :=
        Too_many_instructions { count; limit = nic.max_instructions } :: !violations;
    let bytes = stack_usage p in
    if bytes > nic.max_stack_bytes then
      violations := Stack_overflow { bytes; limit = nic.max_stack_bytes } :: !violations;
    let structural =
      structural_violations [| nic.allows_back_edges; nic.allows_calls |] p.main
    in
    List.rev !violations @ Lemur_util.Listx.uniq ( = ) structural

  let loads nic p = check nic p = []

  let pp_violation ppf = function
    | Too_many_instructions { count; limit } ->
        Format.fprintf ppf "too many instructions (%d > %d)" count limit
    | Stack_overflow { bytes; limit } ->
        Format.fprintf ppf "stack overflow (%d > %d bytes)" bytes limit
    | Backward_jump -> Format.pp_print_string ppf "backward jump (loop not unrolled)"
    | Function_call f -> Format.fprintf ppf "function call to %S (not inlined)" f
end
