open Lemur_util

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_bounds () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Prng.int t 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Prng.float t 3.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 3.0)
  done

let test_prng_truncated_gaussian () =
  let t = Prng.create ~seed:3 in
  for _ = 1 to 500 do
    let x = Prng.truncated_gaussian t ~mu:10.0 ~sigma:5.0 ~lo:8.0 ~hi:12.0 in
    Alcotest.(check bool) "in [lo, hi]" true (x >= 8.0 && x <= 12.0)
  done

let test_prng_split_independent () =
  let parent = Prng.create ~seed:1 in
  let child = Prng.split parent in
  Alcotest.(check bool) "child differs from parent" true
    (Prng.bits64 child <> Prng.bits64 parent)

let test_prng_unbiased_large_bound () =
  (* Regression for the modulo bias: with bound = 3 * 2^60, the raw
     62-bit draw wraps twice over [0, 2^60), so a bare [mod] lands there
     with probability 1/2 instead of the uniform 1/3. 20k samples give a
     standard error of ~0.33%, so a 2% band cleanly separates the two. *)
  let t = Prng.create ~seed:99 in
  let bound = 3 * (1 lsl 60) in
  let low_cut = 1 lsl 60 in
  let n = 20_000 in
  let low = ref 0 in
  for _ = 1 to n do
    let x = Prng.int t bound in
    Alcotest.(check bool) "in range" true (x >= 0 && x < bound);
    if x < low_cut then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "low third holds 1/3 of the mass (got %.4f)" frac)
    true
    (Float.abs (frac -. (1.0 /. 3.0)) < 0.02)

let test_prng_max_int_bound () =
  let t = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Prng.int t max_int in
    Alcotest.(check bool) "non-negative" true (x >= 0)
  done

(* The first draws of every Prng entry point from seed 42, recorded as
   exact text: the engines' bit-exact replay rests on these streams.
   The zero-width truncated-Gaussian case sits 5 sigma from mu, so all
   64 rejections run and the clamp returns [lo]; the bits64 draw after
   it pins how many draws the clamp consumed. *)
let prng_golden_stream () =
  let t = Prng.create ~seed:42 in
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  for _ = 1 to 4 do add "bits64 %Lx\n" (Prng.bits64 t) done;
  for _ = 1 to 4 do add "int %d %d\n" (Prng.int t 40) (Prng.int t max_int) done;
  for _ = 1 to 4 do add "float %h\n" (Prng.float t 1.0) done;
  for _ = 1 to 4 do add "gaussian %h\n" (Prng.gaussian t ~mu:100.0 ~sigma:15.0) done;
  for _ = 1 to 4 do
    add "truncated %h\n"
      (Prng.truncated_gaussian t ~mu:200.0 ~sigma:40.0 ~lo:150.0 ~hi:260.0)
  done;
  add "clamp %h\n" (Prng.truncated_gaussian t ~mu:0.0 ~sigma:1.0 ~lo:5.0 ~hi:5.0);
  add "after clamp %Lx\n" (Prng.bits64 t);
  let child = Prng.split t in
  let twin = Prng.copy child in
  for _ = 1 to 2 do
    add "split %Lx parent %Lx copy %Lx\n" (Prng.bits64 child) (Prng.bits64 t)
      (Prng.bits64 twin)
  done;
  Buffer.contents b

let test_prng_golden_stream () =
  let s = prng_golden_stream () in
  Alcotest.(check bool) "clamp returns lo" true
    (String.length s > 0
    && List.mem "clamp 0x1.4p+2" (String.split_on_char '\n' s));
  Alcotest.(check string) "seed-42 stream digest"
    "b7a8f38147d44d71947e678d512eb389"
    (Digest.to_hex (Digest.string s))

let test_stats_nan_rejected () =
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "percentile rejects NaN data" true
    (raises (fun () -> Stats.percentile 50.0 [ 1.0; Float.nan; 2.0 ]));
  Alcotest.(check bool) "percentile rejects NaN p" true
    (raises (fun () -> Stats.percentile Float.nan [ 1.0; 2.0 ]));
  Alcotest.(check bool) "percentile rejects p > 100" true
    (raises (fun () -> Stats.percentile 101.0 [ 1.0 ]));
  Alcotest.(check bool) "summarize rejects NaN" true
    (raises (fun () -> Stats.summarize [ Float.nan ]));
  Alcotest.(check bool) "mean rejects NaN" true
    (raises (fun () -> Stats.mean [ 0.0; Float.nan ]));
  (* infinities are data, not poison: they still flow through *)
  Alcotest.(check (float 1e-9)) "infinite max ok" infinity
    (Stats.summarize [ 1.0; infinity ]).Stats.max

let test_units () =
  Alcotest.(check (float 1e-6)) "gbps" 1e9 (Units.gbps 1.0);
  Alcotest.(check (float 1e-6)) "roundtrip" 42.0 (Units.to_gbps (Units.gbps 42.0));
  Alcotest.(check (float 1e-6)) "us" 45_000.0 (Units.us 45.0);
  (* 1 Gbps of 1500-byte packets is ~83.3 kpps *)
  let pps = Units.pps_of_bps ~pkt_bytes:1500 (Units.gbps 1.0) in
  Alcotest.(check (float 1.0)) "pps" 83333.3 pps;
  Alcotest.(check (float 1e-3))
    "pps inverse" (Units.gbps 1.0)
    (Units.bps_of_pps ~pkt_bytes:1500 pps)

let test_cartesian () =
  let got = Listx.cartesian [ [ 1; 2 ]; [ 3 ]; [ 4; 5 ] ] in
  Alcotest.(check (list (list int)))
    "product"
    [ [ 1; 3; 4 ]; [ 1; 3; 5 ]; [ 2; 3; 4 ]; [ 2; 3; 5 ] ]
    (List.sort compare got);
  Alcotest.(check (list (list int))) "empty product" [ [] ] (Listx.cartesian [])

let test_compositions () =
  Alcotest.(check (list (list int)))
    "3 into 2" [ [ 1; 2 ]; [ 2; 1 ] ] (Listx.compositions 3 2);
  Alcotest.(check int) "5 into 3 count" 6 (List.length (Listx.compositions 5 3));
  Alcotest.(check (list (list int))) "0 into 0" [ [] ] (Listx.compositions 0 0);
  Alcotest.(check (list (list int))) "too few" [] (Listx.compositions 2 3);
  (* weak compositions of n into k: C(n+k-1, k-1) *)
  Alcotest.(check int) "weak 4 into 3" 15 (List.length (Listx.weak_compositions 4 3))

let test_group_consecutive () =
  let got = Listx.group_consecutive (fun a b -> a = b) [ 1; 1; 2; 3; 3; 3; 1 ] in
  Alcotest.(check (list (list int)))
    "runs" [ [ 1; 1 ]; [ 2 ]; [ 3; 3; 3 ]; [ 1 ] ] got;
  Alcotest.(check (list (list int))) "empty" [] (Listx.group_consecutive ( = ) [])

let test_max_by () =
  Alcotest.(check (option int)) "max" (Some 9)
    (Listx.max_by float_of_int [ 3; 9; 1 ]);
  Alcotest.(check (option int)) "empty" None (Listx.max_by float_of_int []);
  Alcotest.(check (option int)) "min" (Some 1)
    (Listx.min_by float_of_int [ 3; 9; 1 ])

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
  Alcotest.(check int) "n" 4 s.Stats.n

let test_linear_fit () =
  let slope, intercept = Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  Alcotest.(check (float 1e-9)) "slope" 2.0 slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 intercept

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile 100.0 xs)

let test_texttable () =
  let t = Texttable.create ~headers:[ "a"; "bb" ] in
  Texttable.add_row t [ "1"; "2" ];
  Texttable.add_row t [ "333" ];
  let rendered = Texttable.render t in
  Alcotest.(check bool) "contains rule" true
    (String.length rendered > 0 && String.contains rendered '-');
  Alcotest.(check bool) "pads short rows" true
    (List.length (String.split_on_char '\n' rendered) = 4)

let test_pool_basic () =
  (* ordered results, typed per-job errors, no early abort *)
  (match Pool.all (Pool.map ~domains:1 (fun x -> x * x) [ 1; 2; 3 ]) with
  | Ok l -> Alcotest.(check (list int)) "squares in order" [ 1; 4; 9 ] l
  | Error e -> Alcotest.failf "sequential map failed: %s" (Pool.error_to_string e));
  let results =
    Pool.map ~domains:3
      (fun x -> if x = 2 then failwith "boom" else x * 10)
      [ 1; 2; 3 ]
  in
  (match results with
  | [ Ok 10; Error e; Ok 30 ] ->
      Alcotest.(check int) "error carries job index" 1 e.Pool.job_index;
      Alcotest.(check bool) "error carries the message" true
        (let n = "boom" and h = e.Pool.message in
         let nl = String.length n and hl = String.length h in
         let rec go i = i + nl <= hl && (String.sub h i nl = n || go (i + 1)) in
         go 0)
  | _ -> Alcotest.fail "one failing job must not poison its neighbours");
  (match Pool.all results with
  | Ok _ -> Alcotest.fail "all must surface the first error"
  | Error e -> Alcotest.(check int) "first error" 1 e.Pool.job_index);
  (* empty input, and a worker-side nested map (runs inline, no deadlock) *)
  (match Pool.map ~domains:4 (fun x -> x) [] with
  | [] -> ()
  | _ -> Alcotest.fail "empty input maps to empty output");
  match
    Pool.all
      (Pool.map ~domains:2
         (fun x -> Pool.all (Pool.map ~domains:2 (fun y -> x + y) [ 1; 2 ]))
         [ 10; 20 ])
  with
  | Ok [ Ok [ 11; 12 ]; Ok [ 21; 22 ] ] -> ()
  | _ -> Alcotest.fail "nested map must run inline and preserve order"

let test_pool_skewed_deterministic () =
  (* Per-item claiming must keep results slotted by index even when
     one item costs ~100x its neighbours, so the parallel order matches
     the sequential one byte-for-byte. *)
  let spin iters x =
    let h = ref x in
    for _ = 1 to iters do
      h := ((!h * 1103515245) + 12345) land 0x3FFFFFFF;
      h := !h lxor (!h lsr 13)
    done;
    !h
  in
  let items =
    List.init 32 (fun i ->
        (i, if i = 0 || i = 31 then 200_000 else 2_000))
  in
  let run jobs =
    List.map
      (function Ok v -> v | Error _ -> -1)
      (Pool.map ~domains:jobs (fun (i, iters) -> spin iters (i + 1)) items)
  in
  Alcotest.(check (list int)) "skewed corpus agrees -j 1 vs -j 4" (run 1)
    (run 4)

let test_timing_clamp () =
  Alcotest.(check (float 0.0)) "forward duration" 1.5
    (Timing.duration ~start:1.0 ~stop:2.5);
  (* a clock step backwards must clamp to zero, never go negative *)
  Alcotest.(check (float 0.0)) "backwards clamps to 0" 0.0
    (Timing.duration ~start:5.0 ~stop:3.0);
  Alcotest.(check bool) "elapsed is non-negative" true
    (Timing.elapsed (Timing.now () +. 60.0) >= 0.0)

(* The heapsort [Stats] used before it selected its percentiles, kept
   as the reference for [Stats.tail_summary] and [Stats.percentile]:
   [sort_floats xs n] sorts [xs.(0 .. n-1)] ascending in place. *)
let sort_floats (xs : float array) n =
  if n < 0 || n > Array.length xs then invalid_arg "sort_floats: length";
  let sift root stop =
    let r = ref root and go = ref true in
    while !go do
      let c = (2 * !r) + 1 in
      if c >= stop then go := false
      else begin
        let c = if c + 1 < stop && xs.(c + 1) > xs.(c) then c + 1 else c in
        if xs.(c) > xs.(!r) then begin
          let tmp = xs.(!r) in
          xs.(!r) <- xs.(c);
          xs.(c) <- tmp;
          r := c
        end
        else go := false
      end
    done
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let tmp = xs.(0) in
    xs.(0) <- xs.(last);
    xs.(last) <- tmp;
    sift 0 last
  done

(* Nearest rank on a sorted copy. *)
let nearest_rank p sorted n =
  sorted.((int_of_float (ceil (p /. 100.0 *. float_of_int n)) |> max 1 |> min n) - 1)

(* Musser's median-of-3 killer for [n = 2k]:
   1, k+1, 3, k+3, ..., k-1, 2k-1, 2, 4, ..., 2k. *)
let median3_killer k =
  Array.init (2 * k) (fun i ->
      let i = i + 1 in
      float_of_int
        (if i > k then 2 * (i - k) else if i mod 2 = 1 then i else k + i - 1))

(* Sample arrays shaped to stress selection: random values, heavy
   duplicates, constant, sorted, reversed and median-of-3 killers, each
   with a prefix length [n] that includes 0, 1 and 2. *)
let selection_input =
  let open QCheck.Gen in
  let values =
    oneof
      [
        list_size (int_range 0 300) (float_range 0.0 1e6);
        list_size (int_range 0 300) (map float_of_int (int_range 0 4));
        map2 (fun n x -> List.init n (fun _ -> x)) (int_range 0 100) (float_range 0.0 10.0);
        map (fun n -> List.init n float_of_int) (int_range 0 300);
        map (fun n -> List.init n (fun i -> float_of_int (n - i))) (int_range 0 300);
        map (fun k -> Array.to_list (median3_killer (2 * k))) (int_range 1 150);
        list_size (int_range 1 2) (float_range 0.0 5.0);
      ]
  in
  map2
    (fun xs k ->
      let len = List.length xs in
      let n = if k < 3 then min k len else len - (k mod (min len 5 + 1)) in
      (Array.of_list xs, max 0 n))
    values (int_range 0 8)

(* [Pool.map] at each of [domains] returns what the sequential map does,
   the job indices of planned failures included. *)
let pool_agrees domains (xs, fail_mod) =
  let f x =
    if fail_mod > 0 && x mod fail_mod = 0 then failwith "planned"
    else (x * 7) - 3
  in
  let strip = List.map (Result.map_error (fun e -> e.Pool.job_index)) in
  let seq = strip (Pool.map ~domains:1 f xs) in
  List.for_all (fun d -> strip (Pool.map ~domains:d f xs) = seq) domains

let qcheck_cases =
  let open QCheck in
  [
    (* Lists shorter than the domain count: the helper count is capped at
       [n - 1], so every item still lands in its own slot. *)
    Test.make ~name:"pool map: short lists agree at every domain count" ~count:30
      (pair (list_of_size (Gen.int_range 0 4) small_int) (int_range 0 3))
      (pool_agrees [ 2; 3; 4; 8 ]);
    Test.make ~name:"pool map: domains 1 and 4 agree" ~count:30
      (pair (list_of_size (Gen.int_range 0 40) small_int) (int_range 0 5))
      (pool_agrees [ 2; 3; 4 ]);
    Test.make ~name:"compositions sum to n" ~count:100
      (pair (int_range 1 8) (int_range 1 4))
      (fun (n, k) ->
        List.for_all
          (fun parts ->
            List.fold_left ( + ) 0 parts = n && List.length parts = k)
          (Listx.compositions n k));
    Test.make ~name:"cartesian size is product of sizes" ~count:50
      (list_of_size (Gen.int_range 0 3) (list_of_size (Gen.int_range 1 4) small_int))
      (fun lists ->
        List.length (Listx.cartesian lists)
        = List.fold_left (fun acc l -> acc * List.length l) 1 lists);
    Test.make ~name:"percentile within min/max" ~count:100
      (pair (list_of_size (Gen.int_range 1 20) (float_range 0.0 100.0))
         (float_range 0.0 100.0))
      (fun (xs, p) ->
        let v = Stats.percentile p xs in
        let s = Stats.summarize xs in
        v >= s.Stats.min && v <= s.Stats.max);
    Test.make ~name:"sort_floats sorts the prefix, leaves the rest" ~count:200
      (pair (list_of_size (Gen.int_range 0 60) (float_range (-1e6) 1e6)) small_nat)
      (fun (xs, k) ->
        let a = Array.of_list xs in
        let n = if a = [||] then 0 else k mod (Array.length a + 1) in
        sort_floats a n;
        let prefix = List.filteri (fun i _ -> i < n) xs in
        Array.to_list (Array.sub a 0 n) = List.sort Float.compare prefix
        && Array.to_list (Array.sub a n (Array.length a - n))
           = List.filteri (fun i _ -> i >= n) xs);
    Test.make ~name:"tail_summary matches a sort" ~count:500
      (make
         ~print:(fun (a, n) ->
           Printf.sprintf "n=%d [%s]" n
             (String.concat "; " (Array.to_list (Array.map string_of_float a))))
         selection_input)
      (fun (a, n) ->
        let sorted = Array.copy a in
        sort_floats sorted n;
        let sum = ref 0.0 in
        for i = 0 to n - 1 do
          sum := !sum +. a.(i)
        done;
        let expected =
          if n = 0 then (0.0, 0.0, 0.0, 0.0)
          else
            ( !sum /. float_of_int n,
              nearest_rank 50.0 sorted n,
              nearest_rank 99.0 sorted n,
              sorted.(n - 1) )
        in
        let xs = Array.copy a in
        let got = Stats.tail_summary xs n in
        let same_multiset =
          let p = Array.sub xs 0 n in
          sort_floats p n;
          p = Array.sub sorted 0 n
        in
        got = expected && same_multiset
        && Array.sub xs n (Array.length a - n) = Array.sub a n (Array.length a - n)
        && (n = 0
           || List.for_all
                (fun p ->
                  Stats.percentile p (Array.to_list (Array.sub a 0 n))
                  = nearest_rank p sorted n)
                [ 0.0; 1.0; 50.0; 90.0; 99.0; 100.0 ]));
  ]

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng truncated gaussian" `Quick test_prng_truncated_gaussian;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng unbiased at 3*2^60" `Quick test_prng_unbiased_large_bound;
    Alcotest.test_case "prng max_int bound" `Quick test_prng_max_int_bound;
    Alcotest.test_case "stats reject NaN" `Quick test_stats_nan_rejected;
    Alcotest.test_case "units" `Quick test_units;
    Alcotest.test_case "cartesian" `Quick test_cartesian;
    Alcotest.test_case "compositions" `Quick test_compositions;
    Alcotest.test_case "group_consecutive" `Quick test_group_consecutive;
    Alcotest.test_case "max_by/min_by" `Quick test_max_by;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "linear fit" `Quick test_linear_fit;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "texttable" `Quick test_texttable;
    Alcotest.test_case "pool map" `Quick test_pool_basic;
    Alcotest.test_case "pool skewed determinism" `Quick test_pool_skewed_deterministic;
    Alcotest.test_case "timing clamp" `Quick test_timing_clamp;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases
  @ [ Alcotest.test_case "prng golden stream" `Quick test_prng_golden_stream ]
