open Lemur_profiler
open Lemur_nf

let test_determinism () =
  let p1 = Profiler.create ~seed:1 () in
  let p2 = Profiler.create ~seed:1 () in
  Alcotest.(check (list (float 1e-12)))
    "same samples"
    (Profiler.samples p1 Kind.Encrypt Datasheet.Same Profiler.Long_lived)
    (Profiler.samples p2 Kind.Encrypt Datasheet.Same Profiler.Long_lived);
  let p3 = Profiler.create ~seed:2 () in
  Alcotest.(check bool) "different seed differs" true
    (Profiler.samples p1 Kind.Encrypt Datasheet.Same Profiler.Long_lived
    <> Profiler.samples p3 Kind.Encrypt Datasheet.Same Profiler.Long_lived)

let test_samples_within_datasheet () =
  let p = Profiler.create () in
  List.iter
    (fun kind ->
      List.iter
        (fun numa ->
          let cost = Datasheet.cycle_cost kind numa in
          let samples = Profiler.samples p kind numa Profiler.Long_lived in
          Alcotest.(check int) "500 runs" 500 (List.length samples);
          List.iter
            (fun s ->
              Alcotest.(check bool)
                (Printf.sprintf "%s sample in [min,max]" (Kind.name kind))
                true
                (s >= cost.Datasheet.min -. 1e-6 && s <= cost.Datasheet.max +. 1e-6))
            samples)
        [ Datasheet.Same; Datasheet.Diff ])
    Kind.all

let test_table4_shape () =
  let p = Profiler.create () in
  let rows = Profiler.table4 p in
  Alcotest.(check int) "8 rows (4 NFs x 2 NUMA)" 8 (List.length rows);
  (* Dedup Diff row should roughly match Table 4: mean ~31188 *)
  let _, _, dedup_diff =
    List.find (fun (l, n, _) -> l = "Dedup" && n = "Diff") rows
  in
  Alcotest.(check bool) "dedup diff mean near 31188" true
    (Float.abs (dedup_diff.Lemur_util.Stats.mean -. 31188.0) < 800.0)

let test_stability_bound () =
  let p = Profiler.create () in
  (* §5.2: "the worst-case cycle cost being within 6.5% of the average" *)
  let b = Profiler.stability_bound p in
  Alcotest.(check bool) "within 6.5%" true (b < 0.065);
  Alcotest.(check bool) "nonzero spread" true (b > 0.001)

let test_worst_case_conservative () =
  let p = Profiler.create () in
  List.iter
    (fun kind ->
      let worst = Profiler.cycles_kind p kind Datasheet.Diff in
      let s = Profiler.summary p kind Datasheet.Diff Profiler.Long_lived in
      Alcotest.(check bool) "worst >= mean" true (worst >= s.Lemur_util.Stats.mean))
    Kind.all

let test_error_injection () =
  let p0 = Profiler.create ~seed:9 () in
  let p5 = Profiler.create ~seed:9 ~error:0.05 () in
  let w0 = Profiler.cycles_kind p0 Kind.Encrypt Datasheet.Same in
  let w5 = Profiler.cycles_kind p5 Kind.Encrypt Datasheet.Same in
  Alcotest.(check (float 1e-6)) "5% under-estimation" (w0 *. 0.95) w5

let test_uniform_ablation () =
  let p = Profiler.create ~uniform_cycles:(Some 5000.0) () in
  List.iter
    (fun kind ->
      Alcotest.(check (float 1e-9)) "uniform" 5000.0
        (Profiler.cycles_kind p kind Datasheet.Same))
    Kind.all

let test_short_flow_mode () =
  let p = Profiler.create () in
  (* Stateful NFs profile worse under flow churn; stateless unchanged. *)
  let worst mode kind =
    List.fold_left Float.max 0.0 (Profiler.samples p kind Datasheet.Same mode)
  in
  Alcotest.(check bool) "NAT worse under churn" true
    (worst Profiler.Short_flows Kind.Nat > worst Profiler.Long_lived Kind.Nat);
  let acl_l = Profiler.summary p Kind.Acl Datasheet.Same Profiler.Long_lived in
  let acl_s = Profiler.summary p Kind.Acl Datasheet.Same Profiler.Short_flows in
  Alcotest.(check bool) "ACL similar (stateless)" true
    (Float.abs (acl_l.Lemur_util.Stats.mean -. acl_s.Lemur_util.Stats.mean)
    < acl_l.Lemur_util.Stats.mean *. 0.02)

let test_linear_size_model () =
  let p = Profiler.create () in
  (* The fitted slope recovers the datasheet's ground-truth slope. *)
  (match Profiler.fit_size_model p Kind.Acl Datasheet.Same with
  | None -> Alcotest.fail "ACL is size-dependent"
  | Some (slope, intercept) ->
      let truth = Option.get (Datasheet.size_slope Kind.Acl) in
      Alcotest.(check bool)
        (Printf.sprintf "slope %.3f near %.3f" slope truth)
        true
        (Float.abs (slope -. truth) < truth *. 0.15);
      Alcotest.(check bool) "positive intercept" true (intercept > 0.0));
  (* Predictions interpolate sensibly between profiled sizes. *)
  let predict n = Option.get (Profiler.predict_cycles p Kind.Acl Datasheet.Same ~size:n) in
  Alcotest.(check bool) "monotone in size" true (predict 4096 > predict 256);
  let measured = (Profiler.summary p Kind.Acl Datasheet.Same ~size:2048 Profiler.Long_lived).Lemur_util.Stats.mean in
  Alcotest.(check bool) "prediction within 5% of measurement" true
    (Float.abs (predict 2048 -. measured) < measured *. 0.05);
  (* size-independent NFs have no model *)
  Alcotest.(check bool) "encrypt has no size model" true
    (Profiler.fit_size_model p Kind.Encrypt Datasheet.Same = None)

let test_sized_instance () =
  let p = Profiler.create () in
  let small =
    Lemur_nf.Instance.make ~params:[ ("rules", Params.Int 64) ] Kind.Acl
  in
  let big =
    Lemur_nf.Instance.make ~params:[ ("rules", Params.Int 8192) ] Kind.Acl
  in
  Alcotest.(check bool) "bigger ACL costs more" true
    (Profiler.cycles p big Datasheet.Same > Profiler.cycles p small Datasheet.Same)

(* The worst case spelled out as the fold [cycles] memoizes: max over
   both traffic modes' samples, shaved by [error]. *)
let folded_worst p ~error kind numa ~size =
  let worst_of mode =
    List.fold_left Float.max neg_infinity
      (Profiler.samples p kind numa ~size mode)
  in
  Float.max (worst_of Profiler.Long_lived) (worst_of Profiler.Short_flows)
  *. (1.0 -. error)

let size_key = function
  | Kind.Acl -> Some "rules"
  | Kind.Nat -> Some "entries"
  | Kind.Monitor -> Some "flows"
  | _ -> None

let sized kind size =
  match size_key kind with
  | Some key -> Lemur_nf.Instance.make ~params:[ (key, Params.Int size) ] kind
  | None -> Lemur_nf.Instance.make kind

let same_bits msg expected got =
  if Int64.bits_of_float expected <> Int64.bits_of_float got then
    Alcotest.failf "%s: expected %h, got %h" msg expected got

let numas = [ Datasheet.Same; Datasheet.Diff ]

let test_kind_index () =
  List.iteri
    (fun i kind -> Alcotest.(check int) (Kind.name kind) i (Kind.index kind))
    Kind.all

let test_cycles_exact () =
  List.iter
    (fun error ->
      let p = Profiler.create ~error () in
      List.iter
        (fun kind ->
          let reference =
            Option.value (Datasheet.reference_size kind) ~default:0
          in
          List.iter
            (fun numa ->
              let msg size =
                Printf.sprintf "%s numa=%s size=%d error=%g" (Kind.name kind)
                  (if numa = Datasheet.Same then "Same" else "Diff")
                  size error
              in
              let expected = folded_worst p ~error kind numa ~size:reference in
              (* twice: the first call fills the table, the second hits *)
              for _ = 1 to 2 do
                same_bits (msg reference) expected
                  (Profiler.cycles_kind p kind numa);
                same_bits (msg reference) expected
                  (Profiler.cycles p (Lemur_nf.Instance.make kind) numa)
              done;
              List.iter
                (fun size ->
                  let expected = folded_worst p ~error kind numa ~size in
                  for _ = 1 to 2 do
                    same_bits (msg size) expected
                      (Profiler.cycles p (sized kind size) numa)
                  done)
                (Profiler.size_ladder kind))
            numas)
        Kind.all)
    [ 0.0; 0.05 ];
  let p = Profiler.create ~uniform_cycles:(Some 4321.5) () in
  List.iter
    (fun kind ->
      List.iter
        (fun numa ->
          same_bits "uniform" 4321.5 (Profiler.cycles_kind p kind numa);
          List.iter
            (fun size ->
              same_bits "uniform sized" 4321.5
                (Profiler.cycles p (sized kind size) numa))
            (Profiler.size_ladder kind))
        numas)
    Kind.all

(* Every cost query a placement can make of one registry, repeated so
   several domains miss on the same key at once. *)
let queries =
  let one =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun numa ->
            (`Kind (kind, numa)
            :: List.map (fun size -> `Sized (kind, size, numa))
                 (Profiler.size_ladder kind)))
          numas)
      Kind.all
    @ List.concat_map
        (fun algo ->
          List.map (fun numa -> `Acl (algo, 256, numa)) numas)
        Lemur_classifier.Classifier.all_algos
  in
  List.concat (List.init 4 (fun _ -> one))

let answer p = function
  | `Kind (kind, numa) -> Profiler.cycles_kind p kind numa
  | `Sized (kind, size, numa) -> Profiler.cycles p (sized kind size) numa
  | `Acl (algo, size, numa) -> Profiler.acl_cycles p ~algo ~size numa

let test_concurrent_registry () =
  let sequential =
    let p = Profiler.create ~seed:77 () in
    List.map (answer p) queries
  in
  let shared = Profiler.create ~seed:77 () in
  match Lemur_util.Pool.(all (map ~domains:4 (answer shared) queries)) with
  | Error e -> Alcotest.fail (Lemur_util.Pool.error_to_string e)
  | Ok parallel ->
      List.iter2 (same_bits "4-domain query") sequential parallel;
      (* the shared registry's tables now hold exactly those floats *)
      List.iter2 (fun q v -> same_bits "after fill" v (answer shared q))
        queries sequential

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "samples within datasheet" `Quick test_samples_within_datasheet;
    Alcotest.test_case "Table 4 shape" `Quick test_table4_shape;
    Alcotest.test_case "stability bound (6.5%)" `Quick test_stability_bound;
    Alcotest.test_case "worst case conservative" `Quick test_worst_case_conservative;
    Alcotest.test_case "error injection" `Quick test_error_injection;
    Alcotest.test_case "uniform ablation" `Quick test_uniform_ablation;
    Alcotest.test_case "short-flow traffic mode" `Quick test_short_flow_mode;
    Alcotest.test_case "linear size model" `Quick test_linear_size_model;
    Alcotest.test_case "sized instances" `Quick test_sized_instance;
    Alcotest.test_case "kind index is position in all" `Quick test_kind_index;
    Alcotest.test_case "cycles equal the sample fold, bit for bit" `Quick
      test_cycles_exact;
    Alcotest.test_case "shared registry under 4 domains" `Quick
      test_concurrent_registry;
  ]
