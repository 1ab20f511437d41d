type t = Cpp | P4 | Ebpf | Openflow

let all = [ Cpp; P4; Ebpf; Openflow ]

let to_string = function
  | Cpp -> "C++"
  | P4 -> "P4"
  | Ebpf -> "eBPF"
  | Openflow -> "OpenFlow"
