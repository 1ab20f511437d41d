type t =
  | Encrypt
  | Decrypt
  | Fast_encrypt
  | Dedup
  | Tunnel
  | Detunnel
  | Ipv4_fwd
  | Limiter
  | Url_filter
  | Monitor
  | Nat
  | Lb
  | Bpf
  | Acl

let all =
  [
    Encrypt; Decrypt; Fast_encrypt; Dedup; Tunnel; Detunnel; Ipv4_fwd; Limiter;
    Url_filter; Monitor; Nat; Lb; Bpf; Acl;
  ]

let index = function
  | Encrypt -> 0
  | Decrypt -> 1
  | Fast_encrypt -> 2
  | Dedup -> 3
  | Tunnel -> 4
  | Detunnel -> 5
  | Ipv4_fwd -> 6
  | Limiter -> 7
  | Url_filter -> 8
  | Monitor -> 9
  | Nat -> 10
  | Lb -> 11
  | Bpf -> 12
  | Acl -> 13

let name = function
  | Encrypt -> "Encrypt"
  | Decrypt -> "Decrypt"
  | Fast_encrypt -> "FastEncrypt"
  | Dedup -> "Dedup"
  | Tunnel -> "Tunnel"
  | Detunnel -> "Detunnel"
  | Ipv4_fwd -> "IPv4Fwd"
  | Limiter -> "Limiter"
  | Url_filter -> "UrlFilter"
  | Monitor -> "Monitor"
  | Nat -> "NAT"
  | Lb -> "LB"
  | Bpf -> "BPF"
  | Acl -> "ACL"

let of_name s =
  match String.lowercase_ascii s with
  | "encrypt" | "encryption" -> Some Encrypt
  | "decrypt" | "decryption" -> Some Decrypt
  | "fastencrypt" | "fast_encrypt" | "fast enc." | "fastenc" | "chacha" ->
      Some Fast_encrypt
  | "dedup" -> Some Dedup
  | "tunnel" -> Some Tunnel
  | "detunnel" -> Some Detunnel
  | "ipv4fwd" | "ipv4_fwd" | "forward" | "fwd" -> Some Ipv4_fwd
  | "limiter" | "ratelimiter" -> Some Limiter
  | "urlfilter" | "url_filter" -> Some Url_filter
  | "monitor" -> Some Monitor
  | "nat" -> Some Nat
  | "lb" | "loadbalancer" -> Some Lb
  | "bpf" | "match" -> Some Bpf
  | "acl" -> Some Acl
  | _ -> None

let spec_summary = function
  | Encrypt -> "128-bit AES-CBC"
  | Decrypt -> "128-bit AES-CBC"
  | Fast_encrypt -> "128-bit ChaCha"
  | Dedup -> "Network RE"
  | Tunnel -> "Push VLAN tag"
  | Detunnel -> "Pop VLAN tag"
  | Ipv4_fwd -> "IP Address match"
  | Limiter -> "Token bucket"
  | Url_filter -> "HTML Filter"
  | Monitor -> "Per-flow statistics"
  | Nat -> "Carrier-grade NAT"
  | Lb -> "Layer-4 load balance"
  | Bpf -> "Flexible BPF Match"
  | Acl -> "ACL on src/dst fields"

(* Table 3 capability matrix. *)
let targets = function
  | Encrypt | Decrypt -> [ Target.Cpp ]
  | Fast_encrypt -> [ Target.Cpp; Target.Ebpf ]
  | Dedup -> [ Target.Cpp ]
  | Tunnel | Detunnel -> [ Target.Cpp; Target.P4; Target.Ebpf; Target.Openflow ]
  | Ipv4_fwd -> [ Target.Cpp; Target.P4; Target.Ebpf; Target.Openflow ]
  | Limiter -> [ Target.Cpp ]
  | Url_filter -> [ Target.Cpp ]
  | Monitor -> [ Target.Cpp; Target.Openflow ]
  | Nat -> [ Target.Cpp; Target.P4 ]
  | Lb -> [ Target.Cpp; Target.P4; Target.Ebpf ]
  | Bpf -> [ Target.Cpp; Target.P4; Target.Ebpf ]
  | Acl -> [ Target.Cpp; Target.P4; Target.Ebpf; Target.Openflow ]

let targets_eval = function Ipv4_fwd -> [ Target.P4 ] | k -> targets k

let stateful = function
  | Nat | Monitor | Limiter | Dedup | Lb -> true
  | Encrypt | Decrypt | Fast_encrypt | Tunnel | Detunnel | Ipv4_fwd
  | Url_filter | Bpf | Acl ->
      false

let replicable = function
  | Limiter | Monitor -> false
  | Encrypt | Decrypt | Fast_encrypt | Dedup | Tunnel | Detunnel | Ipv4_fwd
  | Url_filter | Nat | Lb | Bpf | Acl ->
      true

let equal = ( = )
