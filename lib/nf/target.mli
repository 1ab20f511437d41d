(** Implementation targets for network functions (Table 3 columns).

    A target is the *class* of platform an NF implementation exists for;
    concrete hardware elements (this PISA switch, that server) live in
    [Lemur_platform]. *)

type t =
  | Cpp  (** BESS module on an x86 server (C++ in the paper) *)
  | P4  (** PISA switch pipeline *)
  | Ebpf  (** eBPF program on a SmartNIC *)
  | Openflow  (** rules on an OpenFlow switch *)

val all : t list
val to_string : t -> string
