(* Tests of the benchmark harness's own arithmetic and request
   generation. *)

let close = Alcotest.float 1e-12

let test_percentiles () =
  let a = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.check close "p0 is the minimum" 1.0 (Stats.percentile a 0.0);
  Alcotest.check close "p50 is the median" 3.0 (Stats.percentile a 50.0);
  Alcotest.check close "p90 interpolates" 4.6 (Stats.percentile a 90.0);
  Alcotest.check close "p100 is the maximum" 5.0 (Stats.percentile a 100.0);
  Alcotest.check close "even count median" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.check close "one sample" 7.0 (Stats.percentile [| 7.0 |] 90.0);
  Alcotest.check close "mean" 3.0 (Stats.mean a);
  Alcotest.check close "empty mean" 0.0 (Stats.mean [||]);
  Alcotest.check close "ratio of nothing" 0.0 (Stats.ratio 3 0);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile [||] 50.0));
  Alcotest.(check (array (float 0.0))) "input left unsorted" [| 5.0; 1.0; 4.0; 2.0; 3.0 |] a

let span id parent name start stop =
  { Spans.id; parent; name; request = 0; start; stop }

let test_self_times () =
  (* Children overlap each other and one runs past its parent: the
     covered part of [0, 10] is [1, 5] and [8, 10]. *)
  let spans =
    [ span 0 None "root" 0.0 10.0;
      span 1 (Some 0) "a" 1.0 3.0;
      span 2 (Some 0) "b" 2.0 5.0;
      span 3 (Some 0) "c" 8.0 12.0;
      span 4 (Some 2) "leaf" 2.5 3.5 ]
  in
  let self name =
    List.assoc name
      (List.map (fun (s, v) -> (s.Spans.name, v)) (Spans.self_times spans))
  in
  Alcotest.check close "root" 4.0 (self "root");
  Alcotest.check close "a" 2.0 (self "a");
  Alcotest.check close "b minus its leaf" 2.0 (self "b");
  Alcotest.check close "c" 4.0 (self "c");
  Alcotest.check close "leaf" 1.0 (self "leaf")

let test_recorder () =
  let now = ref 0.0 in
  let clock () = now := !now +. 1.0; !now in
  let r = Spans.create ~clock in
  Spans.set_request r 3;
  Spans.with_span r "outer" (fun () ->
      Spans.with_span r "inner" (fun () -> ());
      try Spans.with_span r "raises" (fun () -> failwith "boom")
      with Failure _ -> ());
  match Spans.spans r with
  | [ outer; inner; raises ] ->
    Alcotest.(check (option int)) "outer is a root" None outer.Spans.parent;
    Alcotest.(check (option int)) "inner nests" (Some outer.Spans.id) inner.Spans.parent;
    Alcotest.(check (option int)) "a raising span is kept" (Some outer.Spans.id)
      raises.Spans.parent;
    Alcotest.(check int) "request id" 3 inner.Spans.request;
    Alcotest.check close "outer self time" 3.0
      (List.assoc outer (Spans.self_times (Spans.spans r)))
  | l -> Alcotest.failf "expected three spans, got %d" (List.length l)

let lines (p : Workload.plan) =
  List.map (fun r -> r.Workload.line) p.Workload.setup
  @ Array.to_list (Array.map (fun r -> r.Workload.line) p.Workload.measured)

let test_generation () =
  List.iter
    (fun (name, kind) ->
      let a = Workload.plan kind ~seed:7 ~seconds:2 in
      let b = Workload.plan kind ~seed:7 ~seconds:2 in
      let c = Workload.plan kind ~seed:8 ~seconds:2 in
      Alcotest.(check (list string)) (name ^ ": same seed, same requests") (lines a) (lines b);
      Alcotest.(check bool) (name ^ ": another seed, other requests") false (lines a = lines c);
      Alcotest.(check int) (name ^ ": fixed count")
        (Workload.count kind ~seconds:2) (Array.length a.Workload.measured);
      Alcotest.(check int) (name ^ ": whole blocks") 0
        (Array.length a.Workload.measured mod a.Workload.blocks);
      Array.iter
        (fun r ->
          match Server.Protocol.of_line r.Workload.line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: %s" r.Workload.line e.Server.Protocol.message)
        a.Workload.measured)
    Workload.kinds

let test_cold_bounds_distinct () =
  List.iter
    (fun kind ->
      let p = Workload.plan kind ~seed:11 ~seconds:5 in
      let all = lines p in
      Alcotest.(check int) "every request distinct" (List.length all)
        (List.length (List.sort_uniq compare all)))
    [ Workload.P3_cold; Workload.Symbolic_robust ]

let test_pinned_q3 () =
  let p = Workload.plan Workload.P3_cold ~seed:1 ~seconds:1 in
  match p.Workload.pinned with
  | [ (line, v) ] ->
    Alcotest.check close "Q3 value" 0.49699673 v;
    Alcotest.(check bool) "pins the t=24, r=600 query" true
      (String.length line > 0
      && List.exists (fun r -> r.Workload.line = line) p.Workload.setup
      && line
         = Io.Json.to_string
             (Server.Protocol.to_json
                { Server.Protocol.id = None;
                  request =
                    Server.Protocol.Check
                      { model = "adhoc"; query = Workload.q3 ~t:24.0 ~r:600.0;
                        deadline_ms = None } }))
  | _ -> Alcotest.fail "expected one pinned answer"

let test_alias_spreading () =
  let bases = [ "adhoc"; "mp"; "grid"; "drift" ] in
  List.iter
    (fun executors ->
      let spread = Workload.spread_aliases ~executors bases in
      Alcotest.(check int) "one list per shard" executors (Array.length spread);
      Array.iteri
        (fun shard aliases ->
          Alcotest.(check (list string)) "every base" bases (List.map fst aliases);
          List.iter
            (fun (_, alias) ->
              Alcotest.(check int) alias shard
                (Server.Service.shard_of_name ~executors alias))
            aliases)
        spread;
      let names = List.concat_map (List.map snd) (Array.to_list spread) in
      Alcotest.(check int) "distinct names" (List.length names)
        (List.length (List.sort_uniq compare names)))
    [ 1; 2; 3 ];
  let p = Workload.plan Workload.Serve_warm ~seed:3 ~seconds:1 in
  Array.iteri
    (fun i r ->
      Option.iter
        (fun model ->
          Alcotest.(check int) ("request alternates executors: " ^ model)
            (i mod p.Workload.executors)
            (Server.Service.shard_of_name ~executors:p.Workload.executors model))
        r.Workload.model)
    p.Workload.measured

let () =
  Alcotest.run "perfbench"
    [ ("stats", [ Alcotest.test_case "percentiles" `Quick test_percentiles ]);
      ("spans",
       [ Alcotest.test_case "self times" `Quick test_self_times;
         Alcotest.test_case "recorder nesting" `Quick test_recorder ]);
      ("workload",
       [ Alcotest.test_case "seeded generation" `Quick test_generation;
         Alcotest.test_case "cold bounds distinct" `Quick test_cold_bounds_distinct;
         Alcotest.test_case "pinned Q3" `Quick test_pinned_q3;
         Alcotest.test_case "alias spreading" `Quick test_alias_spreading ]) ]
