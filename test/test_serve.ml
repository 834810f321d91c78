(* twilld through the option table: cache keys that cover every knob
   extraction reads, table-checked request values and field names,
   table-rendered dse points, a dse point cache whose answers equal a
   fresh server's, a comm report that is the library's, stats totals
   that are the per-kind sums, a backlog answered in order, a
   [stop] request that really ends [Server.serve], the line reader's
   framing and the JSON string codec. *)

module Server = Twill_serve.Server
module Client = Twill_serve.Client
module Json = Twill_serve.Json
module O = Twill.Options

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let sha = (Twill_chstone.Chstone.find "sha").Twill_chstone.Chstone.source

let comm_req latency =
  Json.Obj
    [
      ("cmd", Json.Str "comm");
      ("src", Json.Str sha);
      ("queue_depth", Json.Int 2);
      ("queue_latency", Json.Int latency);
      ("comm", Json.Str "all");
    ]

(* the size pass reads a seed simulation at the request's latency, so a
   warm server must not hand back the design extracted at another one *)
let test_warm_equals_fresh () =
  let warm = Server.create ~workers:0 () in
  ignore (Server.handle warm (comm_req 2));
  let body t = Json.to_string (Server.handle t (comm_req 128)) in
  Alcotest.(check string)
    "warm = fresh" (body (Server.create ~workers:0 ())) (body warm)

(* twilld's comm report is [Twill.comm_summarize] over its two cached
   elaborations *)
let test_comm_is_library_summary () =
  let r = Server.handle (Server.create ~workers:0 ()) (comm_req 2) in
  let opts =
    { Twill.default_options with queue_depth = 2; comm = Twill.Comm.all }
  in
  let m = Twill.compile ~opts sha in
  let base = Twill.extract ~opts:{ opts with comm = Twill.Comm.none } m in
  let s = Twill.comm_summarize ~opts ~base (Twill.extract_comm ~opts m) in
  let rep = s.Twill.comm_rep in
  List.iter
    (fun (field, v) ->
      Alcotest.(check (option int)) field (Some v) (Json.int_field field r))
    [
      ("cycles", s.Twill.comm_opt_cycles);
      ("base_cycles", s.Twill.comm_base_cycles);
      ("ret", Int32.to_int s.Twill.comm_opt_ret);
      ("base_ret", Int32.to_int s.Twill.comm_base_ret);
      ("merged", List.length rep.Twill.Comm.merges);
      ("resized", List.length rep.Twill.Comm.resizes);
      ("bursts", List.length rep.Twill.Comm.burst_qids);
      ("licm_hoists", rep.Twill.Comm.licm_hoists);
    ]

(* the stats totals are the sums of the per-kind counters *)
let test_stats_totals () =
  let t = Server.create ~workers:0 () in
  let tiny =
    Json.Obj
      [ ("cmd", Json.Str "simulate"); ("src", Json.Str "int main() { return 1; }") ]
  in
  List.iter
    (fun req -> ignore (Server.handle t req))
    [ tiny; tiny; comm_req 2; comm_req 2 ];
  let stats = Server.handle t (Json.Obj [ ("cmd", Json.Str "stats") ]) in
  let sum field =
    match Json.find "by_kind" stats with
    | Some (Json.Obj kinds) ->
        List.fold_left
          (fun acc (_, k) -> acc + Option.value (Json.int_field field k) ~default:0)
          0 kinds
    | _ -> Alcotest.failf "no by_kind: %s" (Json.to_string stats)
  in
  Alcotest.(check (option int)) "cache_hits" (Some (sum "hits"))
    (Json.int_field "cache_hits" stats);
  Alcotest.(check (option int)) "cache_misses" (Some (sum "misses"))
    (Json.int_field "cache_misses" stats);
  Alcotest.(check (pair int int)) "hits, misses" (5, 5) (sum "hits", sum "misses")

let range_message = Result.get_error (O.mem_banks.parse "0" Twill.default_options)

let test_range_message () =
  (match Twill_dse.Grid.parse "kernels=sha;banks=0" with
  | Ok _ -> Alcotest.fail "grid accepted banks=0"
  | Error e ->
      Alcotest.(check bool) ("grid: " ^ e) true (contains ~sub:range_message e));
  let t = Server.create ~workers:0 () in
  let r =
    Server.handle t
      (Json.Obj
         [
           ("cmd", Json.Str "simulate");
           ("src", Json.Str "int main() { return 1; }");
           ("mem_banks", Json.Int 0);
         ])
  in
  Alcotest.(check (option bool)) "twilld refuses" (Some false)
    (Json.bool_field "ok" r);
  let e = Option.value (Json.str_field "error" r) ~default:"" in
  Alcotest.(check bool) ("twilld: " ^ e) true (contains ~sub:range_message e);
  Alcotest.(check (option bool)) "twilld stays up" (Some true)
    (Json.bool_field "ok" (Server.handle t (Json.Obj [ ("cmd", Json.Str "ping") ])));
  let twillc =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/twillc.exe"
  in
  let ic =
    Unix.open_process_in
      (Filename.quote twillc ^ " cosim sha --mem-banks 0 2>&1")
  in
  let out = In_channel.input_all ic in
  Alcotest.(check bool) "CLI exits nonzero" true
    (Unix.close_process_in ic <> Unix.WEXITED 0);
  Alcotest.(check bool) ("CLI: " ^ out) true (contains ~sub:range_message out)

(* A field twilld does not know is an error naming the field, not a
   silently ignored typo; every field the benchmark's session sends
   (benchmark/session.ml) is still accepted. *)
let test_unknown_fields () =
  let t = Server.create ~workers:0 () in
  let tiny = ("src", Json.Str "int main() { return 1; }") in
  let simulate extra =
    Server.handle t (Json.Obj ([ ("cmd", Json.Str "simulate"); tiny ] @ extra))
  in
  List.iter
    (fun (field, v) ->
      let r = simulate [ (field, v) ] in
      Alcotest.(check (option bool)) (field ^ " refused") (Some false)
        (Json.bool_field "ok" r);
      let e = Option.value (Json.str_field "error" r) ~default:"" in
      Alcotest.(check bool) ("names " ^ field ^ ": " ^ e) true
        (contains ~sub:field e))
    [
      ("engine", Json.Str "compiled");
      ("queue_depth_override", Json.Int 4);
      ("queue_latncy", Json.Int 4);
    ];
  let o = Twill.default_options in
  let sim_knobs = Server.fields O.[ nstages; queue_depth; queue_latency; backend; mem_banks ] o in
  List.iter
    (fun (what, kvs) ->
      let r = Server.handle t (Json.Obj (("id", Json.Int 7) :: kvs)) in
      Alcotest.(check (option bool)) (what ^ ": " ^ Json.to_string r) (Some true)
        (Json.bool_field "ok" r))
    [
      ("simulate", (("cmd", Json.Str "simulate") :: tiny :: sim_knobs));
      ("dse", [ ("cmd", Json.Str "dse"); ("sample", Json.Int 1); ("seed", Json.Int 3) ]);
      ( "comm",
        ("cmd", Json.Str "comm") :: tiny :: ("comm", Json.Str "all")
        :: Server.fields O.[ nstages; queue_depth; queue_latency ] o );
      ("stats", [ ("cmd", Json.Str "stats") ]);
    ]

(* twilld answers only the commands its clients send; the others are
   refused like any unknown command, naming it *)
let test_unknown_cmds () =
  let t = Server.create ~workers:0 () in
  List.iter
    (fun (cmd, extra) ->
      let r = Server.handle t (Json.Obj (("cmd", Json.Str cmd) :: extra)) in
      Alcotest.(check (option bool)) (cmd ^ " refused") (Some false)
        (Json.bool_field "ok" r);
      let e = Option.value (Json.str_field "error" r) ~default:"" in
      Alcotest.(check bool) ("names " ^ cmd ^ ": " ^ e) true (contains ~sub:cmd e))
    [
      ("compile", [ ("src", Json.Str "int main() { return 1; }") ]);
      ("schedule", [ ("src", Json.Str "int main() { return 1; }") ]);
      ("batch", []);
    ]

let test_dse_names_backend () =
  let t = Server.create ~workers:0 () in
  let r =
    Server.handle t
      (Json.Obj
         [
           ("cmd", Json.Str "dse");
           ( "grid",
             Json.Str
               "kernels=mips;unroll=false;nstages=3;queue_depth=8;\
                queue_latency=2;backend=fsm,dataflow" );
         ])
  in
  match Json.list_field "frontier" r with
  | None | Some [] -> Alcotest.failf "no frontier: %s" (Json.to_string r)
  | Some entries ->
      List.iter
        (fun e ->
          Alcotest.(check bool)
            ("backend named: " ^ Json.to_string e)
            true
            (List.mem (Json.str_field "backend" e) [ Some "fsm"; Some "dataflow" ]);
          Alcotest.(check bool) "banks named" true (Json.mem "banks" e))
        entries

(* --- the dse point cache ---------------------------------------------------- *)

(* both [Dse.opts_of_point] branches (comm off: one extraction at the
   default depth, re-stamped per point; comm on: an extraction-level
   depth) and, through the size
   pass, an extraction key that takes in every sim knob:
   2 unroll x 3 nstages x 2 comm x 2 depths x 2 latencies = 48 points
   over 6 + 24 extractions *)
let point_grid = "kernels=mips;comm=none,size;queue_depth=1,8;queue_latency=2,32"

let dse_req ?sample ?seed spec =
  let opt name = Option.map (fun v -> (name, Json.Int v)) in
  Json.Obj
    ([ ("cmd", Json.Str "dse"); ("grid", Json.Str spec) ]
    @ List.filter_map Fun.id [ opt "sample" sample; opt "seed" seed ])

(* the response with its one cache-dependent field dropped *)
let without_reused = function
  | Json.Obj kvs ->
      Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "elabs_reused") kvs))
  | j -> Json.to_string j

(* (hits, misses) of the "dse:sim" level in [stats] *)
let dse_sim t =
  let stats = Server.handle t (Json.Obj [ ("cmd", Json.Str "stats") ]) in
  let count field =
    Option.bind (Json.find "by_kind" stats) (Json.find "dse:sim")
    |> Fun.flip Option.bind (Json.int_field field)
    |> Option.value ~default:0
  in
  (count "hits", count "misses")

let test_point_cache_repeat () =
  let t = Server.create ~workers:0 () in
  let r1 = Server.handle t (dse_req point_grid) in
  Alcotest.(check (option int)) "points" (Some 48) (Json.int_field "points" r1);
  Alcotest.(check (option int)) "extractions" (Some 30) (Json.int_field "extractions" r1);
  Alcotest.(check (pair int int)) "first sweep simulates every point" (0, 48) (dse_sim t);
  let r2 = Server.handle t (dse_req point_grid) in
  Alcotest.(check (option int)) "repeat reuses every elaboration" (Some 30)
    (Json.int_field "elabs_reused" r2);
  Alcotest.(check string) "same response" (without_reused r1) (without_reused r2);
  Alcotest.(check (pair int int)) "repeat simulates nothing" (48, 48) (dse_sim t)

(* overlapping samples on a warm server: a mix of cached and new points
   gives the answer a fresh server gives, and each distinct point
   simulates once *)
let test_point_cache_overlap () =
  let grid = Result.get_ok (Twill_dse.Grid.parse point_grid) in
  let sampled seed = Twill_dse.Grid.sample ~seed 8 grid in
  let warm = Server.create ~workers:0 () in
  ignore (Server.handle warm (dse_req ~sample:8 ~seed:1 point_grid));
  List.iter
    (fun seed ->
      let req = dse_req ~sample:8 ~seed point_grid in
      let hits0, _ = dse_sim warm in
      let w = Server.handle warm req in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d overlaps earlier sweeps" seed)
        true
        (fst (dse_sim warm) > hits0);
      Alcotest.(check string)
        (Printf.sprintf "seed %d: warm = fresh" seed)
        (without_reused (Server.handle (Server.create ~workers:0 ()) req))
        (without_reused w))
    [ 2; 3; 4 ];
  let distinct =
    List.concat_map sampled [ 1; 2; 3; 4 ]
    |> List.map Twill_dse.Grid.point_label
    |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check (pair int int))
    "each distinct point simulates once"
    ((4 * 8) - distinct, distinct)
    (dse_sim warm)

(* [elabs_reused] is this request's own count: two first-time sweeps on
   disjoint kernels, in flight together, reuse nothing *)
let test_concurrent_elabs_reused () =
  let t = Server.create ~workers:2 () in
  let line k =
    Json.to_string (dse_req ~sample:8 ("kernels=" ^ k ^ ";queue_latency=2,32"))
  in
  let rs = Twill.Par.pool_map t.Server.pool (Server.handle_line t) [ line "sha"; line "motion" ] in
  Twill.Par.pool_shutdown t.Server.pool;
  List.iter
    (fun r ->
      Alcotest.(check (option int)) ("elabs_reused: " ^ r) (Some 0)
        (Json.int_field "elabs_reused" (Json.of_string r)))
    rs

(* Runs [f] on a connection to a [Server.serve] on a fresh socket, then
   sends [stop]; checks that serve returns within 1 s of it. *)
let with_serve (f : Client.t -> unit) =
  (* next to the test binary, i.e. under _build *)
  let socket =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Printf.sprintf "twilld-test-%d.sock" (Unix.getpid ()))
  in
  let t = Server.create ~workers:0 () in
  let returned = Atomic.make false in
  let _ =
    Thread.create
      (fun () ->
        Server.serve t ~socket;
        Atomic.set returned true)
      ()
  in
  let c = Client.connect ~retries:200 ~retry_delay:0.005 socket in
  f c;
  Client.send_line c {|{"cmd":"stop"}|};
  ignore (Client.recv_line c);
  Client.close c;
  let deadline = Unix.gettimeofday () +. 1.0 in
  while (not (Atomic.get returned)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "serve returned within 1 s" true (Atomic.get returned)

let test_stop_ends_serve () = with_serve ignore

(* two request lines in one write come back in the order they were sent *)
let test_backlog_in_order () =
  with_serve (fun c ->
      Client.send_line c
        ({|{"cmd":"simulate","id":1,"src":"int main() { return 3; }"}|} ^ "\n"
       ^ {|{"cmd":"stats","id":2}|});
      let first = Json.of_string (Client.recv_line c) in
      let second = Json.of_string (Client.recv_line c) in
      Alcotest.(check (list (option int)))
        "ids in order" [ Some 1; Some 2 ]
        [ Json.int_field "id" first; Json.int_field "id" second ];
      Alcotest.(check (option int)) "simulate answered" (Some 3)
        (Json.int_field "ret" first);
      Alcotest.(check (option int)) "stats after it" (Some 2)
        (Json.int_field "requests" second))

(* [Client.recv_line] over a socket pair, with pieces written from
   another thread: the reader keeps one 4 KiB chunk per connection, so
   the first line spans more than three reads, and the bytes after a
   newline wait in the chunk for the next call *)
let test_recv_line_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let long = String.init ((3 * 4096) + 1234) (fun i -> Char.chr (97 + (i mod 26))) in
  let pieces =
    [
      String.sub long 0 1; String.sub long 1 4096; String.sub long 4097 5000;
      String.sub long 9097 (String.length long - 9097) ^ "\n";
      "one\ntwo\nthree\n"; "\n"; "x\ny"; "z\n"; "partial";
    ]
  in
  let writer =
    Thread.create
      (fun () ->
        List.iter
          (fun p ->
            let n = String.length p and off = ref 0 in
            while !off < n do
              off := !off + Unix.write_substring b p !off (n - !off)
            done;
            Thread.delay 0.002)
          pieces;
        Unix.shutdown b Unix.SHUTDOWN_SEND)
      ()
  in
  let r = Client.of_fd a in
  Alcotest.(check bool) "a line longer than three chunks" true (Client.recv_line r = long);
  Alcotest.(check (list string))
    "several lines in one write, an empty line, a tail kept for the next call"
    [ "one"; "two"; "three"; ""; "x"; "yz" ]
    (List.init 6 (fun _ -> Client.recv_line r));
  Alcotest.check_raises "EOF inside a line" Client.Closed (fun () ->
      ignore (Client.recv_line r));
  Thread.join writer;
  Unix.close a;
  Unix.close b

(* the printer's wire format, one character at a time *)
let escape_reference (s : string) : string =
  let b = Buffer.create 16 in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* strings survive a print/parse round trip, as keys and as values, and
   print exactly as the char-by-char reference does *)
let test_json_strings () =
  let strings =
    List.init 256 (fun i -> String.make 1 (Char.chr i))
    @ [
        String.init 256 Char.chr; ""; "\"start"; "end\n"; "\\"; "\ttab\t";
        "\n\n\"\\\001\031\r\t"; "a\r\nb"; String.make 10_000 'x';
        String.make 5000 'a' ^ "\n" ^ String.make 5000 'b'; sha;
      ]
  in
  List.iter
    (fun s ->
      let label = String.escaped (if String.length s > 40 then String.sub s 0 40 else s) in
      Alcotest.(check string) ("printed: " ^ label) (escape_reference s)
        (Json.to_string (Json.Str s));
      Alcotest.(check bool) ("round trip: " ^ label) true
        (Json.of_string (Json.to_string (Json.Obj [ (s, Json.Str s) ]))
        = Json.Obj [ (s, Json.Str s) ]))
    strings;
  Alcotest.(check bool) "\\u, \\b, \\f and \\/ on input" true
    (Json.of_string {|"\u0041\u00e9\u20ac\u0000x\b\f\/\u0041"|}
    = Json.Str "A\xc3\xa9\xe2\x82\xac\000x\b\012/A");
  (* what Python's json.dumps sends for a character outside the BMP *)
  List.iter
    (fun (text, utf8) ->
      Alcotest.(check string) ("surrogate pair " ^ text) utf8
        (match Json.of_string text with Json.Str s -> s | _ -> ""))
    [
      ({|"\ud83d\ude00"|}, "\xf0\x9f\x98\x80");
      ({|"\uD83D\uDE00!"|}, "\xf0\x9f\x98\x80!");
      ({|"\ud800\udc00\udbff\udfff"|}, "\xf0\x90\x80\x80\xf4\x8f\xbf\xbf");
    ];
  List.iter
    (fun (text, msg) ->
      Alcotest.check_raises text (Json.Parse_error msg) (fun () ->
          ignore (Json.of_string text)))
    [
      ({|"abc|}, "unterminated string at offset 4");
      ({|"ab\|}, "dangling escape at offset 4");
      ({|"a\q"|}, "unknown escape at offset 4");
      (* exactly four hex digits, no OCaml digit separator *)
      ({|"\u1_23"|}, "bad \\u escape at offset 7");
      (* unpaired surrogates *)
      ({|"\ud83d"|}, "bad \\u escape at offset 7");
      ({|"\ud83dx"|}, "bad \\u escape at offset 7");
      ({|"\ud83d\u0041"|}, "bad \\u escape at offset 13");
      ({|"\ude00"|}, "bad \\u escape at offset 7");
    ]

let suites =
  [
    ( "serve.options",
      [
        Alcotest.test_case "warm and fresh servers agree" `Quick
          test_warm_equals_fresh;
        Alcotest.test_case "one range message everywhere" `Quick
          test_range_message;
        Alcotest.test_case "unknown request fields are refused" `Quick
          test_unknown_fields;
        Alcotest.test_case "unused commands are refused" `Quick
          test_unknown_cmds;
        Alcotest.test_case "dse frontier names the backend" `Quick
          test_dse_names_backend;
        Alcotest.test_case "stop ends serve" `Quick test_stop_ends_serve;
        Alcotest.test_case "a backlog is answered in order" `Quick
          test_backlog_in_order;
        Alcotest.test_case "comm is Twill.comm_summarize" `Quick
          test_comm_is_library_summary;
        Alcotest.test_case "stats totals are per-kind sums" `Quick
          test_stats_totals;
        Alcotest.test_case "recv_line framing over a socket pair" `Quick
          test_recv_line_framing;
        Alcotest.test_case "JSON strings round-trip and print as before" `Quick
          test_json_strings;
      ] );
    ( "serve.dse",
      [
        Alcotest.test_case "a repeated sweep simulates nothing" `Quick
          test_point_cache_repeat;
        Alcotest.test_case "overlapping sweeps: warm = fresh" `Quick
          test_point_cache_overlap;
        Alcotest.test_case "elabs_reused under concurrent sweeps" `Quick
          test_concurrent_elabs_reused;
      ] );
  ]
