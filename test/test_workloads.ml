(* Unit tests for the synthetic Mediabench suite: PRNG, layouts,
   kernel generation, profiling and the benchmark roster. *)

open Vliw_ir
module Config = Vliw_arch.Config
module Profile = Vliw_core.Profile
module WL = Vliw_workloads

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cfg = Config.default

(* --------------------------------------------------------------- prng *)

let test_prng_determinism () =
  let a = WL.Prng.create ~seed:42 and b = WL.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check ci "same stream" (WL.Prng.next_int a ~bound:1000)
      (WL.Prng.next_int b ~bound:1000)
  done

let test_prng_bounds () =
  let t = WL.Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = WL.Prng.next_int t ~bound:7 in
    check cb "in range" true (v >= 0 && v < 7);
    let f = WL.Prng.next_float t in
    check cb "float in range" true (f >= 0.0 && f < 1.0)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.next_int: bound <= 0") (fun () ->
      ignore (WL.Prng.next_int t ~bound:0))

let test_prng_hash_non_negative () =
  for a = -50 to 50 do
    check cb "hash2 non-negative" true (WL.Prng.hash2 a (a * 7919) >= 0)
  done

(* ------------------------------------------------------------- layout *)

let heap_access symbol =
  Mem_access.make ~storage:Mem_access.Heap ~symbol ~stride:4 ~granularity:4
    ~footprint:1024 ()

let global_access symbol =
  Mem_access.make ~symbol ~stride:4 ~granularity:4 ~footprint:1024 ()

let test_layout_global_stability () =
  let p = WL.Layout.create cfg ~aligned:false ~run:WL.Layout.Profile_run ~seed:7 in
  let e = WL.Layout.create cfg ~aligned:false ~run:WL.Layout.Execution_run ~seed:7 in
  let m = global_access "g" in
  check ci "global base identical across runs" (WL.Layout.base_of p m)
    (WL.Layout.base_of e m)

let test_layout_heap_moves () =
  let p = WL.Layout.create cfg ~aligned:false ~run:WL.Layout.Profile_run ~seed:7 in
  let e = WL.Layout.create cfg ~aligned:false ~run:WL.Layout.Execution_run ~seed:7 in
  let m = heap_access "h" in
  check cb "heap base moves between runs" true
    (WL.Layout.base_of p m <> WL.Layout.base_of e m)

let test_layout_alignment () =
  let t = WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Execution_run ~seed:7 in
  let ni = Config.max_unroll cfg in
  List.iter
    (fun sym ->
      check ci
        (Printf.sprintf "aligned heap base of %s" sym)
        0
        (WL.Layout.base_of t (heap_access sym) mod ni))
    [ "a"; "b"; "c"; "d" ]

let test_layout_strided_addresses () =
  let t = WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed:7 in
  let m = heap_access "s" in
  let a0 = WL.Layout.address t m ~op:0 ~iter:0 in
  let a1 = WL.Layout.address t m ~op:0 ~iter:1 in
  check ci "stride respected" 4 (a1 - a0);
  (* Footprint wrap: iteration footprint/stride lands back on base. *)
  let awrap = WL.Layout.address t m ~op:0 ~iter:(1024 / 4) in
  check ci "wraps inside the footprint" a0 awrap

let test_layout_indirect_in_footprint () =
  let t = WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed:7 in
  let m =
    Mem_access.make ~storage:Mem_access.Heap ~symbol:"ind" ~stride:2
      ~granularity:2 ~footprint:512 ~indirect:true ()
  in
  let base = WL.Layout.base_of t m in
  for iter = 0 to 200 do
    let a = WL.Layout.address t m ~op:3 ~iter in
    check cb "inside footprint" true (a >= base && a < base + 512);
    check ci "granularity aligned" 0 ((a - base) mod 2)
  done

(* ------------------------------------------------------------- kernel *)

let test_kernel_structure () =
  let spec =
    WL.Kernel.make ~compute_per_load:2 ~name:"k" ~trip_count:64
      [
        WL.Kernel.load "a";
        WL.Kernel.store "b";
      ]
  in
  let loop = WL.Kernel.build spec in
  (* load + 2 compute + store *)
  check ci "op count" 4 (Ddg.n_ops loop.Loop.ddg);
  check ci "memory ops" 2 (List.length (Ddg.memory_ops loop.Loop.ddg));
  check ci "trip" 64 loop.Loop.trip_count

let test_kernel_chain_edges () =
  let spec =
    WL.Kernel.make ~compute_per_load:0 ~name:"k" ~trip_count:64
      [
        WL.Kernel.load ~chain:0 "a";
        WL.Kernel.load ~chain:0 "b";
        WL.Kernel.store ~chain:0 "c";
        WL.Kernel.load "free";
      ]
  in
  let loop = WL.Kernel.build spec in
  let chains = Vliw_core.Chains.build loop.Loop.ddg in
  check ci "chained ops plus the free one" 2 (Vliw_core.Chains.n_chains chains);
  check ci "chain of three" 3 (Vliw_core.Chains.longest chains)

let test_kernel_carried_recurrence () =
  let spec =
    WL.Kernel.make ~compute_per_load:2 ~name:"k" ~trip_count:64
      [ WL.Kernel.load "x"; WL.Kernel.store ~carried:true "x" ]
  in
  let loop = WL.Kernel.build spec in
  let recs = Scc.recurrences loop.Loop.ddg in
  check ci "one recurrence" 1 (List.length recs);
  (* The recurrence spans load, computes and store. *)
  check ci "recurrence spans the chain" 4 (List.length (List.hd recs))

let test_kernel_self_carried () =
  let spec =
    WL.Kernel.make ~compute_per_load:1 ~name:"k" ~trip_count:64
      [ WL.Kernel.load ~self_carried:true "p" ]
  in
  let loop = WL.Kernel.build spec in
  let recs = Scc.recurrences loop.Loop.ddg in
  check ci "self recurrence" 1 (List.length recs)

let test_kernel_accumulators () =
  let spec =
    WL.Kernel.make ~compute_per_load:1 ~accumulators:2 ~name:"k"
      ~trip_count:64 [ WL.Kernel.load "a" ]
  in
  let loop = WL.Kernel.build spec in
  check ci "two accumulator recurrences" 2
    (List.length (Scc.recurrences loop.Loop.ddg))

let test_kernel_empty_rejected () =
  Alcotest.check_raises "no refs"
    (Invalid_argument "Kernel.build: no memory references") (fun () ->
      ignore (WL.Kernel.build (WL.Kernel.make ~name:"k" ~trip_count:1 [])))

(* MD5 of each suite loop's [Ddg.pp] text.  Every reported figure starts
   from these graphs, so [Kernel.build] must keep producing them op for
   op and edge for edge, in the same order. *)
let suite_ddg_digests =
  [
    ("epicdec/unquantize", "80e513eb54bd43ecb72227d46fd8ab02");
    ("epicdec/build_tree", "6683c876e25c455415a96ed9698d1243");
    ("epicdec/filter", "6def0704469289dfaf7733bd904c364f");
    ("epicdec/collapse", "cdcf2382bfb3595e5619942dc690c61a");
    ("epicenc/quantize", "a220b8e5c0b6531bce447f43305847c6");
    ("epicenc/dct", "0c865f99b62848dc43026d7fb60dfcbe");
    ("epicenc/reduce", "16ef045a7820f88aa50b576e46e322a5");
    ("epicenc/upsample", "948c789b82ab24da65bf79cac36cc72c");
    ("g721dec/predict", "2dd8f7444700d28cca20b24c9808283c");
    ("g721dec/update", "4fff462c3ea6bf82781fc105509f8fd9");
    ("g721dec/tables", "51f807836be439420807a7e683d9d3a5");
    ("g721dec/reconstruct", "d35ee664b723bd54bd66c0f21edf7cd0");
    ("g721enc/predict", "449719c8b99590fb5fc37ed070e68920");
    ("g721enc/update", "9c66ba8acce651c0f7e73bfa86ba6602");
    ("g721enc/tables", "c8eeb64c38f6037d7057bea2d541fa8d");
    ("g721enc/reconstruct", "11501c4ed55e937e552050a17259e732");
    ("gsmdec/lpc", "2f9a5da3db48476e308506bb8e022f2e");
    ("gsmdec/dyn16", "4fd11c9b2bd2f3d601836c4b1952ff56");
    ("gsmdec/filt", "e95c9432b886494d5ba512ceb4ba1961");
    ("gsmdec/shortterm", "8edb658c802ec82a59e78c442d5aaa27");
    ("gsmenc/lpc", "e7e42578d5afdeff97e4646a4770f0dd");
    ("gsmenc/dyn16", "b4ed798bbd022850cec2f30db480af28");
    ("gsmenc/filt", "f120aefbbdd42885f898389b1177f811");
    ("gsmenc/shortterm", "87512b213fd082ec5c90faa828875a0c");
    ("jpegdec/color", "4a9c8cbb9072213bd8d4e163eb0a3fd9");
    ("jpegdec/huffman", "f93492e587932fdca637e2d9d5822836");
    ("jpegdec/idct", "a2953d85dad26bc42feb029004ec6dd4");
    ("jpegdec/upsample", "71ebec6d9f045c2e70ea1c0a823bce0b");
    ("jpegenc/fdct", "c07019c445c81f281bbc48d5ad3c7bf7");
    ("jpegenc/sample", "eb6f250679ef1b07dc70422c3ac78065");
    ("jpegenc/huff", "4a401acc3b9451a3f486a2b5aaf16072");
    ("mpeg2dec/motion", "ce14d93813223afbca4c70ac8fe3b9a6");
    ("mpeg2dec/idct", "b6c60ff07662b981fce70700566080d2");
    ("mpeg2dec/addblock", "7de9486fc6b2e757877a83087b18f09d");
    ("mpeg2dec/recon", "394babaece8db5cbb36916d6d34ee9ff");
    ("pegwitdec/gf_mul", "51c0c71a0ead6f289134c7ac70cb5161");
    ("pegwitdec/gf_reduce", "fd08d19da3ce76e9f021e28fff0581b1");
    ("pegwitdec/hash", "33d980bfce1c25404101a6c3102a1eb8");
    ("pegwitenc/gf_add", "a5b9194e5105c674a73eb7d49d6847de");
    ("pegwitenc/shift", "4b50e085ad7799b732658768b5f64399");
    ("pegwitenc/sponge", "7c73373dd70c14911987c2f8f0f5f63b");
    ("pgpdec/mp_mul", "e83527e265657746ddc8bc24b89273fb");
    ("pgpdec/mp_add", "a6963d2d553b1e98fd157bb86f7c5686");
    ("pgpdec/sieve", "252916d3035e068f6266cb732c75b613");
    ("pgpenc/mp_mul", "328adca80a7d8892d3ca77df83e30b3e");
    ("pgpenc/mp_add", "55095f242b5aa2200445e00d6408af7a");
    ("pgpenc/sieve", "4241de105714638126c3965455fe0bf0");
    ("pgpenc/armor", "a44410bdbe8b5300f254933d47f9fde0");
    ("rasta/filterbank", "96798423ea414f1e4b559065a85537ac");
    ("rasta/bandpass", "551c532c73cf6bcc5a45141264317fe4");
    ("rasta/cepstrum", "7c5afe793333ccd5ca56101878657092");
    ("rasta/spectrum", "e73360545547b079cac78e29d7d4fc4a");
  ]

let test_kernel_ddgs_pinned () =
  let built =
    List.concat_map
      (fun (b : WL.Benchspec.t) ->
        List.map
          (fun (l : Loop.t) ->
            ( b.WL.Benchspec.name ^ "/" ^ l.Loop.name,
              Digest.to_hex (Digest.string (Format.asprintf "%a" Ddg.pp l.Loop.ddg)) ))
          (WL.Benchspec.loops b))
      WL.Mediabench.all
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "suite DDG digests" suite_ddg_digests built

(* ---------------------------------------------------------- profiling *)

let test_profiling_small_footprint_hits () =
  let layout = WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed:7 in
  let spec =
    WL.Kernel.make ~name:"k" ~trip_count:4096
      [ WL.Kernel.load ~footprint:512 "hot" ]
  in
  let loop = WL.Kernel.build spec in
  let profile = WL.Profiling.profile_loop cfg layout loop in
  match Profile.get profile 0 with
  | None -> Alcotest.fail "load not profiled"
  | Some p ->
      check cb "hot array mostly hits" true (p.Profile.hit_rate > 0.95);
      let sum = Array.fold_left ( +. ) 0.0 p.Profile.cluster_fractions in
      check (Alcotest.float 1e-6) "fractions sum to one" 1.0 sum

let test_profiling_stride16_concentrated () =
  (* The gsmdec example: 16-byte stride + aligned base = one cluster. *)
  let layout = WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed:7 in
  let spec =
    WL.Kernel.make ~name:"k" ~trip_count:1024
      [
        WL.Kernel.load ~storage:Mem_access.Heap ~granularity:2 ~stride:16
          ~footprint:240 "dyn";
      ]
  in
  let loop = WL.Kernel.build spec in
  let profile = WL.Profiling.profile_loop cfg layout loop in
  match Profile.get profile 0 with
  | None -> Alcotest.fail "load not profiled"
  | Some p ->
      check (Alcotest.float 1e-6) "distribution 1.0" 1.0
        (Profile.distribution p)

let test_profiling_unaligned_cluster_moves () =
  (* Without alignment the same operation's preferred cluster usually
     moves between the two runs - the motivation for padding. *)
  let spec =
    WL.Kernel.make ~name:"k" ~trip_count:1024
      [
        WL.Kernel.load ~storage:Mem_access.Heap ~granularity:2 ~stride:16
          ~footprint:240 "gsm_dyn_test";
      ]
  in
  let loop = WL.Kernel.build spec in
  let pref run =
    let layout = WL.Layout.create cfg ~aligned:false ~run ~seed:7 in
    match Profile.get (WL.Profiling.profile_loop cfg layout loop) 0 with
    | Some p -> Profile.preferred_cluster p
    | None -> Alcotest.fail "load not profiled"
  in
  (* Not guaranteed for every symbol; this one is chosen to differ. *)
  check cb "preferred cluster moves without alignment" true
    (pref WL.Layout.Profile_run <> pref WL.Layout.Execution_run)

(* ----------------------------------------------------------- suite *)

let test_mediabench_roster () =
  check ci "fourteen benchmarks" 14 (List.length WL.Mediabench.all);
  let names = WL.Mediabench.names in
  check ci "unique names" 14 (List.length (List.sort_uniq compare names));
  check cb "find works" true
    ((WL.Mediabench.find "gsmdec").WL.Benchspec.name = "gsmdec")

let test_mediabench_builds () =
  List.iter
    (fun b ->
      let loops = WL.Benchspec.loops b in
      check cb (b.WL.Benchspec.name ^ " has loops") true (loops <> []);
      List.iter
        (fun (l : Loop.t) ->
          check cb
            (Printf.sprintf "%s/%s trip count multiple of max unroll"
               b.WL.Benchspec.name l.Loop.name)
            true
            (l.Loop.trip_count mod Config.max_unroll cfg = 0))
        loops)
    WL.Mediabench.all

let test_mediabench_characteristics () =
  let dominant name = WL.Benchspec.dominant_size (WL.Mediabench.find name) in
  check ci "jpegdec is byte-dominated" 1 (fst (dominant "jpegdec"));
  check ci "gsmdec is 2-byte" 2 (fst (dominant "gsmdec"));
  check ci "mpeg2dec is double-heavy" 8 (fst (dominant "mpeg2dec"));
  check ci "pgpdec is word-dominated" 4 (fst (dominant "pgpdec"));
  check cb "pegwitdec mostly indirect" true
    (WL.Benchspec.indirect_share (WL.Mediabench.find "pegwitdec") > 0.7);
  check cb "pegwitenc mostly direct" true
    (WL.Benchspec.indirect_share (WL.Mediabench.find "pegwitenc") < 0.3)

let suite =
  [
    ("prng: deterministic", `Quick, test_prng_determinism);
    ("prng: bounds", `Quick, test_prng_bounds);
    ("prng: hash2 non-negative", `Quick, test_prng_hash_non_negative);
    ("layout: globals are stable", `Quick, test_layout_global_stability);
    ("layout: heap moves between runs", `Quick, test_layout_heap_moves);
    ("layout: alignment pads to NxI", `Quick, test_layout_alignment);
    ("layout: strided addresses", `Quick, test_layout_strided_addresses);
    ("layout: indirect stays in footprint", `Quick, test_layout_indirect_in_footprint);
    ("kernel: structure", `Quick, test_kernel_structure);
    ("kernel: chain edges", `Quick, test_kernel_chain_edges);
    ("kernel: carried store recurrence", `Quick, test_kernel_carried_recurrence);
    ("kernel: self-carried load recurrence", `Quick, test_kernel_self_carried);
    ("kernel: accumulators", `Quick, test_kernel_accumulators);
    ("kernel: empty spec rejected", `Quick, test_kernel_empty_rejected);
    ("profiling: hot arrays hit", `Quick, test_profiling_small_footprint_hits);
    ("profiling: stride 16 concentrates", `Quick, test_profiling_stride16_concentrated);
    ("profiling: unaligned preferred cluster moves", `Quick, test_profiling_unaligned_cluster_moves);
    ("mediabench: roster", `Quick, test_mediabench_roster);
    ("mediabench: loops build", `Quick, test_mediabench_builds);
    ("mediabench: characteristics", `Quick, test_mediabench_characteristics);
    ("kernel: suite DDGs pinned", `Quick, test_kernel_ddgs_pinned);
  ]
