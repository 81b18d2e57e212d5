(* Tuning-service tests: protocol round-trips (QCheck), framing edge
   cases, the warm fast path, admission control, concurrency under
   fault injection, and graceful shutdown.

   The deterministic admission/deadline tests use [create ~start:false]
   — with the dispatcher paused, queue occupancy is a pure function of
   the submits, so backpressure is asserted without timing races. *)

module S = Serve.Server
module P = Serve.Protocol
module F = Serve.Frame

let ev_name e = Option.bind (Util.Json.member "ev" e) Util.Json.to_str

let count_events ~prefix sink =
  List.length
    (List.filter
       (fun e ->
         match ev_name e with
         | Some n ->
             String.length n >= String.length prefix
             && String.sub n 0 (String.length prefix) = prefix
         | None -> false)
       (Obs.Trace.events sink))

(* every directory a test writes lives under one temporary directory
   that is removed at exit, so a run leaves nothing behind *)
let scratch = Filename.temp_dir "perfdojo_test_serve" ""

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () = at_exit (fun () -> remove_tree scratch)

let in_tmp_dir name f =
  let dir = Filename.concat scratch name in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  f dir

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Tiny-but-real service config: micro kernels, small budget, silent. *)
let test_config () =
  {
    S.default_config with
    S.default_budget = 8;
    kernels = Kernels.snitch_micro;
  }

let optimize ?(force = false) ?(deadline_ms = 0) ~id kernel =
  P.Optimize
    {
      id;
      kernel;
      target = "snitch";
      strategy = "sampling";
      budget = 0;
      deadline_ms;
      force;
    }

let query ~id kernel = P.Query { id; kernel; target = "snitch" }

(* ------------------------------------------------------------------ *)
(* Protocol round-trips                                                *)
(* ------------------------------------------------------------------ *)

let gen_label =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 10))

let gen_text = QCheck.Gen.(string_size ~gen:printable (int_bound 16))
let gen_id = QCheck.Gen.int_bound 100_000
let gen_time = QCheck.Gen.float_bound_inclusive 1000.

let gen_request =
  QCheck.Gen.(
    gen_id >>= fun id ->
    gen_label >>= fun kernel ->
    gen_label >>= fun target ->
    gen_label >>= fun strategy ->
    int_bound 5000 >>= fun budget ->
    int_bound 5000 >>= fun deadline_ms ->
    bool >>= fun force ->
    oneofl
      [
        P.Optimize { id; kernel; target; strategy; budget; deadline_ms; force };
        P.Query { id; kernel; target };
        P.Generate { id; kernel; target; strategy; budget; deadline_ms };
        P.Stats { id };
        P.Shutdown { id };
      ])

let gen_response =
  QCheck.Gen.(
    gen_id >>= fun id ->
    gen_label >>= fun kernel ->
    gen_label >>= fun target ->
    bool >>= fun warm ->
    gen_time >>= fun time_s ->
    small_list gen_text >>= fun moves ->
    int_bound 5000 >>= fun evaluations ->
    int_bound 50 >>= fun failures ->
    gen_text >>= fun msg ->
    small_list (pair gen_label (int_bound 1000)) >>= fun counters ->
    small_list (pair gen_label gen_time) >>= fun gauges ->
    oneofl
      [
        P.Optimized
          {
            id; kernel; target; warm; time_s; moves; script = msg;
            evaluations; failures;
          };
        P.Queried { id; kernel; target; found = warm; time_s; moves };
        P.Generated { id; kernel; target; warm; time_s; c_entry = msg; c = msg };
        P.Stats_reply { id; counters; gauges };
        P.Shutdown_ack { id; records = evaluations };
        P.Error { id; code = P.Overloaded; msg };
        P.Error { id; code = P.Faulted "rejected"; msg };
        P.Error { id; code = P.Deadline; msg };
      ])

let arbitrary_request = QCheck.make ~print:P.encode_request gen_request
let arbitrary_response = QCheck.make ~print:P.encode_response gen_response

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:300
        ~name:"request encode -> frame -> deframe -> decode is identity"
        arbitrary_request (fun r ->
          let payload = P.encode_request r in
          match F.decode (F.encode payload) with
          | Ok (p, "") ->
              p = payload && P.decode_request p = Ok r
              && P.encode_request (Result.get_ok (P.decode_request p)) = payload
          | _ -> false);
      QCheck.Test.make ~count:300
        ~name:"response encode -> frame -> deframe -> decode is identity"
        arbitrary_response (fun r ->
          let payload = P.encode_response r in
          match F.decode (F.encode payload) with
          | Ok (p, "") -> p = payload && P.decode_response p = Ok r
          | _ -> false);
      QCheck.Test.make ~count:200
        ~name:"every strict prefix of a frame is torn, never Ok"
        QCheck.(pair arbitrary_request (int_bound 10_000))
        (fun (r, cut_seed) ->
          let frame = F.encode (P.encode_request r) in
          let cut = cut_seed mod String.length frame in
          match F.decode (String.sub frame 0 cut) with
          | Ok _ -> false
          | Error (F.Torn _) | Error F.Eof -> true
          | Error _ -> false);
      QCheck.Test.make ~count:200
        ~name:"oversized frame skips cleanly to the next frame"
        arbitrary_request
        (fun r ->
          let big = F.encode (String.make 64 'x') in
          let payload = P.encode_request r in
          let stream = big ^ F.encode payload in
          match F.decode_skip ~max:32 stream with
          | Error (F.Oversized { len = 64; max = 32 }), rest ->
              F.decode rest = Ok (payload, "")
          | _ -> false);
    ]

let frame_tests =
  [
    Alcotest.test_case "malformed headers are typed errors" `Quick (fun () ->
        (match F.decode "abc\nxyz\n" with
        | Error (F.Malformed _) -> ()
        | _ -> Alcotest.fail "non-decimal header accepted");
        (match F.decode "-3\nxyz\n" with
        | Error (F.Malformed _) -> ()
        | _ -> Alcotest.fail "negative length accepted");
        (match F.decode (String.make 40 '9') with
        | Error (F.Malformed _) -> ()
        | _ -> Alcotest.fail "absurd header not rejected");
        match F.decode "3\nabcX" with
        | Error (F.Malformed _) -> ()
        | _ -> Alcotest.fail "bad trailer accepted");
    Alcotest.test_case "channel read survives an oversized frame" `Quick
      (fun () ->
        let f = Filename.temp_file "serveframe" ".bin" in
        let oc = open_out_bin f in
        F.write oc (String.make 100 'a');
        F.write oc "next";
        close_out oc;
        let ic = open_in_bin f in
        (match F.read ~max:10 ic with
        | Error (F.Oversized { len = 100; max = 10 }) -> ()
        | _ -> Alcotest.fail "oversized not detected");
        (match F.read ~max:10 ic with
        | Ok "next" -> ()
        | _ -> Alcotest.fail "stream lost framing after oversized");
        (match F.read ~max:10 ic with
        | Error F.Eof -> ()
        | _ -> Alcotest.fail "clean EOF not reported");
        close_in ic;
        Sys.remove f);
  ]

(* The round-trip properties above hold for any self-consistent codec;
   these pin the bytes themselves. *)
let golden_reply =
  P.Optimized
    {
      id = 1000;
      kernel = "softmax_r8";
      target = "x86";
      warm = true;
      time_s = 2.681904761904762e-06;
      moves = [ "unroll([0])"; "split_scope([0,1] factor 8)" ];
      script =
        "pds 1\nkernel softmax_r8\ntarget x86\nat path [0] do unroll\nat \
         path [0,1] do split(factor=8)\n";
      evaluations = 0;
      failures = 0;
    }

let golden_reply_bytes =
  "{\"resp\":\"optimized\",\"v\":1,\"id\":1000,\"kernel\":\"softmax_r8\",\
   \"target\":\"x86\",\"warm\":true,\"time_s\":2.681904761904762e-06,\
   \"moves\":[\"unroll([0])\",\"split_scope([0,1] factor 8)\"],\
   \"script\":\"pds 1\\nkernel softmax_r8\\ntarget x86\\nat path [0] do \
   unroll\\nat path [0,1] do split(factor=8)\\n\",\"evaluations\":0,\
   \"failures\":0}"

let golden_request =
  P.Optimize
    {
      id = 7;
      kernel = "softmax_r8";
      target = "x86";
      strategy = "annealing";
      budget = 64;
      deadline_ms = 250;
      force = false;
    }

let golden_request_bytes =
  "{\"req\":\"optimize\",\"v\":1,\"id\":7,\"kernel\":\"softmax_r8\",\
   \"target\":\"x86\",\"strategy\":\"annealing\",\"budget\":64,\
   \"deadline_ms\":250,\"force\":false}"

let wire_tests =
  [
    Alcotest.test_case "a warm reply and its frame are byte-pinned" `Quick
      (fun () ->
        let payload = P.encode_response golden_reply in
        Alcotest.(check string) "payload" golden_reply_bytes payload;
        Alcotest.(check int) "length" 306 (String.length payload);
        Alcotest.(check string) "frame"
          ("306\n" ^ golden_reply_bytes ^ "\n")
          (F.encode payload);
        Alcotest.(check bool) "decodes" true
          (P.decode_response golden_reply_bytes = Ok golden_reply));
    Alcotest.test_case "an optimize request and its frame are byte-pinned"
      `Quick (fun () ->
        let payload = P.encode_request golden_request in
        Alcotest.(check string) "payload" golden_request_bytes payload;
        Alcotest.(check string) "frame"
          ("135\n" ^ golden_request_bytes ^ "\n")
          (F.encode payload);
        Alcotest.(check bool) "decodes" true
          (P.decode_request golden_request_bytes = Ok golden_request));
    Alcotest.test_case "an integral member outside int is ill-typed" `Quick
      (fun () ->
        let refused member line =
          match P.decode_request line with
          | Error e ->
              Alcotest.(check string) line
                (Printf.sprintf "ill-typed member %S" member) e
          | Ok _ -> Alcotest.failf "accepted %s" line
        in
        refused "id"
          {|{"req":"query","v":1,"id":1e300,"kernel":"k","target":"x86"}|};
        refused "id"
          {|{"req":"query","v":1,"id":4611686018427387904,"kernel":"k","target":"x86"}|};
        refused "budget"
          {|{"req":"optimize","v":1,"id":1,"kernel":"k","target":"x86","strategy":"annealing","budget":1e30,"deadline_ms":0,"force":false}|});
    Alcotest.test_case "a number JSON forbids is unparseable" `Quick (fun () ->
        let line =
          {|{"req":"query","v":1,"id":007,"kernel":"k","target":"x86"}|}
        in
        Alcotest.(check (result reject string)) line
          (Error "unparseable message: bad number \"007\" at offset 29")
          (P.decode_request line));
  ]

(* ------------------------------------------------------------------ *)
(* Warm fast path                                                      *)
(* ------------------------------------------------------------------ *)

let warm_tests =
  [
    Alcotest.test_case "warm query and optimize run no search events" `Quick
      (fun () ->
        let obs = Obs.Trace.make_buffer () in
        let server = S.create { (test_config ()) with S.obs } in
        (match S.submit server (optimize ~id:1 "scale") with
        | P.Optimized { warm = false; _ } -> ()
        | r -> Alcotest.failf "cold: %s" (P.response_kind r));
        let search_events = count_events ~prefix:"search." obs in
        Alcotest.(check bool) "cold search traced" true (search_events > 0);
        (match S.submit server (optimize ~id:2 "scale") with
        | P.Optimized { warm = true; evaluations = 0; _ } -> ()
        | r -> Alcotest.failf "warm optimize: %s" (P.response_kind r));
        (match S.submit server (query ~id:3 "scale") with
        | P.Queried { found = true; _ } -> ()
        | r -> Alcotest.failf "warm query: %s" (P.response_kind r));
        Alcotest.(check int) "no new search events" search_events
          (count_events ~prefix:"search." obs);
        (* the fast path is visible in the metrics too *)
        Alcotest.(check int) "warm hits counted" 2
          (Obs.Metrics.counter (S.metrics server) "serve.warm_hits");
        S.stop server);
    Alcotest.test_case "--force searches even with a warm record" `Quick
      (fun () ->
        let server = S.create (test_config ()) in
        (match S.submit server (optimize ~id:1 "scale") with
        | P.Optimized { warm = false; _ } -> ()
        | r -> Alcotest.failf "cold: %s" (P.response_kind r));
        (match S.submit server (optimize ~force:true ~id:2 "scale") with
        | P.Optimized { warm = false; _ } -> ()
        | r -> Alcotest.failf "forced: %s" (P.response_kind r));
        S.stop server);
    Alcotest.test_case "bad kernel / target / strategy are bad_request"
      `Quick (fun () ->
        let server = S.create (test_config ()) in
        let check_bad req =
          match S.submit server req with
          | P.Error { code = P.Bad_request; _ } -> ()
          | r -> Alcotest.failf "expected bad_request, got %s"
                   (P.response_kind r)
        in
        check_bad (optimize ~id:1 "nosuch");
        check_bad (P.Query { id = 2; kernel = "scale"; target = "nosuch" });
        check_bad
          (P.Optimize
             {
               id = 3;
               kernel = "scale";
               target = "snitch";
               strategy = "nosuch";
               budget = 0;
               deadline_ms = 0;
               force = false;
             });
        S.stop server);
    Alcotest.test_case
      "cold requests train the shared surrogate; stats exports it" `Quick
      (fun () ->
        let server =
          S.create
            { (test_config ()) with S.surrogate = true; dedup = true }
        in
        let model =
          match S.surrogate_model server with
          | Some m -> m
          | None -> Alcotest.fail "surrogate enabled but no shared model"
        in
        Alcotest.(check int) "fresh model" 0 (Surrogate.Model.updates model);
        (match S.submit server (optimize ~id:1 "scale") with
        | P.Optimized { warm = false; _ } -> ()
        | r -> Alcotest.failf "cold: %s" (P.response_kind r));
        Alcotest.(check bool) "cold search trained the model" true
          (Surrogate.Model.updates model > 0);
        (* warm replay must not touch the model *)
        let after_cold = Surrogate.Model.updates model in
        (match S.submit server (optimize ~id:2 "scale") with
        | P.Optimized { warm = true; _ } -> ()
        | r -> Alcotest.failf "warm: %s" (P.response_kind r));
        Alcotest.(check int) "warm path trains nothing" after_cold
          (Surrogate.Model.updates model);
        (match S.submit server (P.Stats { id = 3 }) with
        | P.Stats_reply { counters; _ } ->
            Alcotest.(check bool) "surrogate.evals exported" true
              (match List.assoc_opt "surrogate.evals" counters with
              | Some n -> n > 0
              | None -> false)
        | r -> Alcotest.failf "stats: %s" (P.response_kind r));
        S.stop server);
  ]

(* ------------------------------------------------------------------ *)
(* Admission control, deadlines                                        *)
(* ------------------------------------------------------------------ *)

let admission_tests =
  [
    Alcotest.test_case
      "queue_depth 1: second cold request is typed overloaded" `Quick
      (fun () ->
        (* dispatcher paused: occupancy is exactly what we submit *)
        let server =
          S.create ~start:false
            { (test_config ()) with S.queue_depth = 1 }
        in
        let first = S.submit_async server (optimize ~force:true ~id:1 "scale") in
        let ticket =
          match first with
          | `Queued t -> t
          | `Done r -> Alcotest.failf "admitted inline: %s" (P.response_kind r)
        in
        (match S.submit_async server (optimize ~force:true ~id:2 "scale") with
        | `Done (P.Error { code = P.Overloaded; _ }) -> ()
        | `Done r -> Alcotest.failf "expected overloaded: %s" (P.response_kind r)
        | `Queued _ -> Alcotest.fail "admitted past queue_depth");
        let m = S.metrics server in
        Alcotest.(check (option (float 0.0)))
          "queue depth gauge" (Some 1.0)
          (Obs.Metrics.gauge m "serve.queue_depth");
        Alcotest.(check int) "rejection counted" 1
          (Obs.Metrics.counter m "serve.rejected_overload");
        (* the stats request reports the same numbers over the wire *)
        (match S.submit server (P.Stats { id = 3 }) with
        | P.Stats_reply { counters; gauges; _ } ->
            Alcotest.(check (option int))
              "stats rejection counter" (Some 1)
              (List.assoc_opt "serve.rejected_overload" counters);
            Alcotest.(check (option (float 0.0)))
              "stats queue gauge" (Some 1.0)
              (List.assoc_opt "serve.queue_depth" gauges)
        | r -> Alcotest.failf "stats: %s" (P.response_kind r));
        (* un-pause: the admitted request completes, then drain *)
        S.start server;
        (match S.await ticket with
        | P.Optimized { warm = false; _ } -> ()
        | r -> Alcotest.failf "queued request: %s" (P.response_kind r));
        S.stop server);
    Alcotest.test_case "expired deadline answers typed deadline error"
      `Quick (fun () ->
        let server = S.create ~start:false (test_config ()) in
        let ticket =
          match
            S.submit_async server
              (optimize ~force:true ~deadline_ms:5 ~id:1 "scale")
          with
          | `Queued t -> t
          | `Done r -> Alcotest.failf "inline: %s" (P.response_kind r)
        in
        Thread.delay 0.05;
        S.start server;
        (match S.await ticket with
        | P.Error { code = P.Deadline; _ } -> ()
        | r -> Alcotest.failf "expected deadline: %s" (P.response_kind r));
        S.stop server);
  ]

(* ------------------------------------------------------------------ *)
(* Concurrency and fault degradation                                   *)
(* ------------------------------------------------------------------ *)

let concurrency_tests =
  [
    Alcotest.test_case
      "concurrent mixed workload under faults: every request answered"
      `Quick (fun () ->
        in_tmp_dir "faulty" @@ fun dir ->
        let db_file = Filename.concat dir "tune.jsonl" in
        if Sys.file_exists db_file then Sys.remove db_file;
        let server =
          S.create
            {
              (test_config ()) with
              S.workers = 2;
              queue_depth = 64;
              db_file = Some db_file;
              faults = Robust.Faults.spread ~seed:7 0.3;
            }
        in
        let kernels = [| "scale"; "axpy"; "dot"; "vecsum" |] in
        let n = 16 in
        let replies = Array.make n None in
        let threads =
          Array.init n (fun i ->
              Thread.create
                (fun i ->
                  let k = kernels.(i mod Array.length kernels) in
                  let req =
                    match i mod 3 with
                    | 0 -> optimize ~id:i k
                    | 1 -> query ~id:i k
                    | _ -> P.Stats { id = i }
                  in
                  replies.(i) <- Some (S.submit server req))
                i)
        in
        Array.iter Thread.join threads;
        (* every request got a well-formed response with its own id *)
        Array.iteri
          (fun i r ->
            match r with
            | None -> Alcotest.failf "request %d never answered" i
            | Some resp ->
                Alcotest.(check int)
                  (Printf.sprintf "id of reply %d" i)
                  i (P.response_id resp);
                (* a faulted optimize degrades to faulted.*, never a
                   crash; anything else is kind-correct *)
                (match resp with
                | P.Error { code = P.Faulted _; _ }
                | P.Optimized _ | P.Queried _ | P.Stats_reply _ ->
                    ()
                | r ->
                    Alcotest.failf "reply %d: unexpected %s" i
                      (P.response_kind r)))
          replies;
        Alcotest.(check bool) "server survived" false (S.stopping server);
        (* successful cold deposits survive shutdown: the checkpoint
           holds the union of everything deposited *)
        let deposited =
          List.sort_uniq compare
            (List.map
               (fun (r : Tuning.Record.t) -> (r.kernel, r.target))
               (Tuning.Db.records (S.db server)))
        in
        (match S.submit server (P.Shutdown { id = 999 }) with
        | P.Shutdown_ack { records; _ } ->
            Alcotest.(check int) "ack counts the records"
              (List.length deposited) records
        | r -> Alcotest.failf "shutdown: %s" (P.response_kind r));
        match Tuning.Db.load db_file with
        | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
        | Ok db ->
            let reloaded =
              List.sort_uniq compare
                (List.map
                   (fun (r : Tuning.Record.t) -> (r.kernel, r.target))
                   (Tuning.Db.records db))
            in
            Alcotest.(check (list (pair string string)))
              "no deposits lost" deposited reloaded);
    Alcotest.test_case "shutdown checkpoint warms a successor server"
      `Quick (fun () ->
        in_tmp_dir "successor" @@ fun dir ->
        let db_file = Filename.concat dir "tune.jsonl" in
        if Sys.file_exists db_file then Sys.remove db_file;
        let cfg = { (test_config ()) with S.db_file = Some db_file } in
        let first = S.create cfg in
        (match S.submit first (optimize ~id:1 "scale") with
        | P.Optimized { warm = false; _ } -> ()
        | r -> Alcotest.failf "cold: %s" (P.response_kind r));
        (match S.submit first (optimize ~id:2 "axpy") with
        | P.Optimized { warm = false; _ } -> ()
        | r -> Alcotest.failf "cold: %s" (P.response_kind r));
        (match S.submit first (P.Shutdown { id = 3 }) with
        | P.Shutdown_ack { records = 2; _ } -> ()
        | P.Shutdown_ack { records; _ } ->
            Alcotest.failf "checkpointed %d records, expected 2" records
        | r -> Alcotest.failf "shutdown: %s" (P.response_kind r));
        let second = S.create cfg in
        (match S.submit second (optimize ~id:1 "scale") with
        | P.Optimized { warm = true; _ } -> ()
        | r -> Alcotest.failf "successor scale: %s" (P.response_kind r));
        (match S.submit second (optimize ~id:2 "axpy") with
        | P.Optimized { warm = true; _ } -> ()
        | r -> Alcotest.failf "successor axpy: %s" (P.response_kind r));
        S.stop second);
  ]

(* ------------------------------------------------------------------ *)
(* The pipe transport                                                  *)
(* ------------------------------------------------------------------ *)

let write_frames path payloads =
  let oc = open_out_bin path in
  List.iter (F.write oc) payloads;
  close_out oc

let read_responses path =
  let ic = open_in_bin path in
  let rec go acc =
    match F.read ic with
    | Error F.Eof -> List.rev acc
    | Error e -> Alcotest.failf "response stream: %s" (F.error_message e)
    | Ok payload -> (
        match P.decode_response payload with
        | Ok r -> go (r :: acc)
        | Error msg -> Alcotest.failf "unparseable response: %s" msg)
  in
  let rs = go [] in
  close_in ic;
  rs

let pipe_tests =
  [
    Alcotest.test_case
      "pipe: garbage and oversized frames answer typed errors, stream \
       survives"
      `Quick (fun () ->
        in_tmp_dir "pipe" @@ fun dir ->
        let req_f = Filename.concat dir "req.bin" in
        let resp_f = Filename.concat dir "resp.bin" in
        write_frames req_f
          [
            P.encode_request (query ~id:1 "scale");
            "this is not json";
            String.make 600 'x';
            P.encode_request (P.Stats { id = 4 });
          ];
        let server =
          S.create { (test_config ()) with S.max_frame = 512 }
        in
        let ic = open_in_bin req_f in
        let oc = open_out_bin resp_f in
        S.run_pipe server ic oc;
        close_in ic;
        close_out oc;
        Alcotest.(check bool) "EOF stopped the server" true
          (S.stopping server);
        match read_responses resp_f with
        | [ P.Queried { id = 1; found = false; _ };
            P.Error { id = 0; code = P.Protocol_error; _ };
            P.Error { id = 0; code = P.Protocol_error; _ };
            P.Stats_reply { id = 4; _ } ] ->
            ()
        | rs ->
            Alcotest.failf "unexpected response stream: %s"
              (String.concat " | " (List.map P.response_kind rs)));
    Alcotest.test_case "pipe: shutdown request acks and stops" `Quick
      (fun () ->
        in_tmp_dir "pipe_shutdown" @@ fun dir ->
        let req_f = Filename.concat dir "req.bin" in
        let resp_f = Filename.concat dir "resp.bin" in
        write_frames req_f
          [
            P.encode_request (optimize ~id:1 "scale");
            P.encode_request (P.Shutdown { id = 2 });
            (* anything after shutdown is never read *)
            P.encode_request (P.Stats { id = 3 });
          ];
        let server = S.create (test_config ()) in
        let ic = open_in_bin req_f in
        let oc = open_out_bin resp_f in
        S.run_pipe server ic oc;
        close_in ic;
        close_out oc;
        Alcotest.(check bool) "stopped" true (S.stopping server);
        match read_responses resp_f with
        | [ P.Optimized { id = 1; _ }; P.Shutdown_ack { id = 2; _ } ] -> ()
        | rs ->
            Alcotest.failf "unexpected response stream: %s"
              (String.concat " | " (List.map P.response_kind rs)));
  ]

let interrupt_tests =
  [
    Alcotest.test_case
      "a pending interrupt lets an in-flight exhaustive request finish"
      `Quick (fun () ->
        (* the graceful drain answers in-flight requests: a search
           without a checkpoint ignores the flag, so it is not faulted *)
        Interrupt_flag.with_set (fun () ->
            let server =
              S.create { (test_config ()) with S.exhaustive_depth = 2 }
            in
            let reply =
              S.submit server
                (P.Optimize
                   {
                     id = 1;
                     kernel = "vecsum";
                     target = "x86";
                     strategy = "exhaustive";
                     budget = 0;
                     deadline_ms = 0;
                     force = true;
                   })
            in
            S.stop server;
            match reply with
            | P.Optimized _ -> ()
            | r -> Alcotest.failf "answered %s" (P.response_kind r)));
  ]

let database_tests =
  [
    Alcotest.test_case
      "create refuses a database line it cannot read and leaves the file"
      `Quick (fun () ->
        in_tmp_dir "refused" @@ fun dir ->
        let db_file = Filename.concat dir "tune.jsonl" in
        let cfg = { (test_config ()) with S.db_file = Some db_file } in
        let server = S.create cfg in
        (match S.submit server (optimize ~id:1 "scale") with
        | P.Optimized _ -> ()
        | r -> Alcotest.failf "cold: %s" (P.response_kind r));
        S.stop server;
        let line = read_file db_file in
        let schema = "\"schema\":3" and n = String.length "\"schema\":3" in
        let rec at i =
          if i + n > String.length line then
            Alcotest.failf "no schema 3 in %S" line
          else if String.sub line i n = schema then i
          else at (i + 1)
        in
        let i = at 0 in
        let oc =
          open_out_gen [ Open_append; Open_binary ] 0o644 db_file
        in
        output_string oc
          (String.sub line 0 i ^ "\"schema\":4"
          ^ String.sub line (i + n) (String.length line - i - n));
        close_out oc;
        let before = read_file db_file in
        (match S.create cfg with
        | server ->
            S.stop server;
            Alcotest.fail "created a server over a schema-4 line"
        | exception S.Database_refused msg ->
            Alcotest.(check string)
              "names the file, line and reason"
              (db_file ^ ": line 2: record: unsupported schema version 4")
              msg);
        Alcotest.(check bool) "file unchanged" true
          (String.equal before (read_file db_file)));
  ]

let () =
  Alcotest.run "serve"
    [
      ("protocol", qcheck_tests);
      ("frame", frame_tests);
      ("wire", wire_tests);
      ("warm", warm_tests);
      ("admission", admission_tests);
      ("concurrency", concurrency_tests);
      ("pipe", pipe_tests);
      ("interrupt", interrupt_tests);
      ("database", database_tests);
    ]
