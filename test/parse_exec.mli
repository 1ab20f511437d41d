(** Behavioural execution of a parse tree over packet bytes: what the
    PISA parser does with the meta-compiler's {e merged} parser.

    Walking the tree extracts headers in order (resolving layouts from
    {!P4header}), reads each state's select field, and follows the
    matching transition (or the default). Used by tests to validate that
    the §A.2.1 parser-merge algorithm accepts exactly the packets each
    constituent NF's parser accepted. *)

open Lemur_p4

type extracted = { header : string; fields : (string * int) list }

type outcome = {
  headers : extracted list;  (** in parse order *)
  accepted : bool;
      (** false when a state's select value had no transition and no
          default, or the packet was too short for an extraction *)
}

exception Unknown_header of string
(** A parse-tree node references a header missing from the library. *)

val run : Parsetree.t -> bytes -> outcome

val header_field : outcome -> header:string -> field:string -> int option
(** Convenience lookup in the extraction result. *)
