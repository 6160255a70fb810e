(* The load driver of the repository benchmark. One executable, three
   modes, each run as a process of its own by run.py:

     perfbench owner ...  the data owner: Build, then one Insert per
                          "insert" line on stdin, shipped over the wire
     perfbench drive ...  the users: a closed-loop driver sending a
                          seeded, fixed list of operations
     perfbench host  ...  Net.Service or Cluster.Router served through
                          the same public calls the binaries make, with
                          every Search/Insert dispatch timed

   Owner, users and servers never share a process, so each one's
   process-global Prime_rep memo starts empty, as in a deployment. The
   server side receives only the generated records and tokens. *)

open Net
open Slicer_types

let now_ns = Obs.Clock.now_ns

(* ---- arguments: [--key value] pairs; keys may repeat ---- *)

let is_key s = String.length s > 2 && String.sub s 0 2 = "--"

let parse_args argv =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | [] -> ()
    | key :: v :: rest when is_key key && not (is_key v) ->
      Hashtbl.add tbl (String.sub key 2 (String.length key - 2)) v;
      go rest
    | key :: rest when is_key key ->
      Hashtbl.add tbl (String.sub key 2 (String.length key - 2)) "true";
      go rest
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  go argv;
  tbl

let arg tbl k =
  match Hashtbl.find_opt tbl k with Some v -> v | None -> failwith ("missing --" ^ k)

let arg_int tbl k = int_of_string (arg tbl k)
let args_all tbl k = List.rev (Hashtbl.find_all tbl k)

let endpoint_of s =
  match Cluster.Topology.endpoint_of_string s with Ok e -> e | Error e -> failwith e

let or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Client.error_to_string e)

(* ---- the workload ----

   The database — records, insert batches, owner keys — derives from a
   fixed per-workload dataset name, so every seed measures the same
   database and the same query pool. The seed draws the operation
   sequence: the order of the cold queries, the Zipf draws and the
   token shuffles. *)

(* The paper's anonymous single attribute, or "a", "b", ... *)
let attr_names n =
  if n = 1 then [ "" ] else List.init n (fun i -> String.make 1 (Char.chr (97 + i)))

let initial_records ~data ~width ~attrs n =
  Gen.multiattr_records ~rng:(Drbg.create ~seed:("perfbench-records:" ^ data)) ~width
    ~attrs:(attr_names attrs) n

let insert_batch ~data ~width ~attrs ~size k =
  let rng = Drbg.create ~seed:(Printf.sprintf "perfbench-insert:%s:%d" data k) in
  List.init size (fun i ->
      { id = Printf.sprintf "N%d.%d" k i;
        fields = List.map (fun a -> (a, Drbg.uniform_int rng (1 lsl width))) (attr_names attrs) })

let dedupe xs =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

(* Two queries per record and attribute, both matched by the record
   itself, so every query yields tokens and results: an equality probe of
   its value [v], and an order query pointing toward the nearer end of
   the value space — Gt (v + 1) for a low value, Lt (v - 1) for a high
   one (a Gt query for [q] selects the values below [q]). Such order
   queries carry no token for the top trie level, which every other
   order query would share, so a distinct-query stream stays mostly
   first touches. *)
let candidate_queries ~data ~width records =
  let half = 1 lsl (width - 1) in
  List.concat_map
    (fun r ->
      List.concat_map
        (fun (attr, v) ->
          [ query ~attr v Eq;
            (if v > half then query ~attr (v - 1) Lt else query ~attr (v + 1) Gt) ])
        r.fields)
    records
  |> dedupe
  |> Sore.shuffle ~rng:(Drbg.create ~seed:("perfbench-queries:" ^ data))

let take n xs = List.filteri (fun i _ -> i < n) xs

(* [n] draws from [pool] with Zipf(1) popularity by pool rank. *)
let zipf_draws ~seed ~n pool =
  let pool = Array.of_list pool in
  let k = Array.length pool in
  let cdf = Array.make k 0. in
  let total = ref 0. in
  Array.iteri
    (fun i _ ->
      total := !total +. (1. /. float_of_int (i + 1));
      cdf.(i) <- !total)
    pool;
  let rng = Drbg.create ~seed:("perfbench-zipf:" ^ seed) in
  List.init n (fun _ ->
      let u = float_of_int (Drbg.uniform_int rng 1_000_000) /. 1e6 *. !total in
      let rec find i = if i >= k - 1 || cdf.(i) > u then i else find (i + 1) in
      pool.(find 0))

(* ---- owner mode ---- *)

let owner tbl =
  let data = arg tbl "data" and width = arg_int tbl "width" in
  let endpoint = endpoint_of (arg tbl "endpoint") in
  let batch = arg_int tbl "insert-batch" in
  (* Both cores: nothing else runs while the owner builds. *)
  Parallel.set_domains 2;
  let rng = Drbg.create ~seed:("perfbench-owner:" ^ data) in
  let keys = Keys.generate ~rng () in
  let acc = Rsa_acc.setup ~rng ~bits:512 () in
  let o = Owner.create ~width ~rng ~acc_params:acc ~keys () in
  let t0 = now_ns () in
  let attrs = arg_int tbl "attrs" in
  let shipment = Owner.build o (initial_records ~data ~width ~attrs (arg_int tbl "records")) in
  let t1 = now_ns () in
  (* Set-up ends with the owner pinned to one core: two domains there
     would wait on each other at every collection. *)
  Parallel.set_domains 1;
  let oc = or_fail "owner connect" (Client.connect ~name:"owner" ~provision:false endpoint) in
  ignore
    (or_fail "build"
       (Client.build oc ~width ~payment:1000 ~acc ~tdp_public:keys.Keys.tdp_public
          ~user_keys:(Keys.for_user keys) ~shipment ~trapdoor:(Owner.export_trapdoor_state o)));
  Printf.printf "built %d %d\n%!" (t1 - t0) (now_ns () - t0);
  let rec serve k =
    match input_line stdin with
    | "insert" ->
      let t0 = now_ns () in
      let shipment = Owner.insert o (insert_batch ~data ~width ~attrs ~size:batch k) in
      let t1 = now_ns () in
      ignore
        (or_fail "insert"
           (Client.insert oc ~shipment ~trapdoor:(Owner.export_trapdoor_state o)));
      Printf.printf "inserted %d %d\n%!" (t1 - t0) (now_ns () - t0);
      serve (k + 1)
    | _ | (exception End_of_file) -> ()
  in
  serve 0;
  Client.close oc

(* ---- drive mode ---- *)

type user = {
  name : string;
  conn : Client.t;
  rng : Drbg.t;
  u : User.t;
  acc : Rsa_acc.params;
  mutable sent : int;
}

let welcome conn name =
  let hello = Wire.Hello { client = name; proto = Wire.proto_version } in
  match or_fail "hello" (Client.rpc conn hello) with
  | Wire.Welcome p -> p
  | _ -> failwith "hello: expected a welcome"

(* Re-provision after an Insert: the fresh trapdoor state. *)
let refresh u = User.update_state u.u (welcome u.conn u.name).Wire.pv_trapdoor

let provision ~seed name endpoint =
  let conn = or_fail ("connect " ^ name) (Client.connect ~name ~provision:false endpoint) in
  let p = welcome conn name in
  { name; conn; rng = Drbg.create ~seed:(Printf.sprintf "perfbench-user:%s:%s" seed name);
    u = User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor;
    acc = p.Wire.pv_acc; sent = 0 }

(* One search, each layer timed by the calls the driver makes into it. *)
type sample = {
  s_id : string;
  s_lat : int;          (* query to verified, decrypted, oracle-checked ids *)
  s_gen : int;
  s_rpc : int;
  s_verify : int;
  s_decrypt : int;
  s_tokens : int;
  s_results : int;
  s_gas : int;
  s_vo : int;
  s_parts : int;
  s_err : string;       (* "" when the search succeeded *)
}

let vo_bytes claims =
  List.fold_left
    (fun n c -> n + String.length (Bigint.to_bytes_be c.Slicer_contract.witness))
    0 claims

let search u ~records q =
  let t0 = now_ns () in
  let tokens = User.gen_tokens ~rng:u.rng u.u q in
  let t1 = now_ns () in
  u.sent <- u.sent + 1;
  let id = Printf.sprintf "%s#%d" u.name u.sent in
  let reply =
    Client.rpc u.conn
      (Wire.Search { client = u.name; request_id = id; batched = false; tokens; trace = None })
  in
  let t2 = now_ns () in
  let failed err =
    { s_id = id; s_lat = t2 - t0; s_gen = t1 - t0; s_rpc = t2 - t1; s_verify = 0;
      s_decrypt = 0; s_tokens = List.length tokens; s_results = 0; s_gas = 0; s_vo = 0;
      s_parts = 0; s_err = err }
  in
  match reply with
  | Ok (Wire.Found r) when r.Wire.sr_request_id = id ->
    let parts =
      match r.Wire.sr_parts with
      | [] -> [ (r.Wire.sr_ac, r.Wire.sr_claims) ]
      | ps -> List.map (fun p -> (p.Wire.shp_ac, p.Wire.shp_claims)) ps
    in
    let verified =
      List.for_all (fun (ac, claims) -> Verifier.verify_claims u.acc ~ac claims) parts
    in
    let t3 = now_ns () in
    let ers = List.concat_map (fun c -> c.Slicer_contract.results) r.Wire.sr_claims in
    let ids = try Some (User.decrypt_results u.u ers) with Invalid_argument _ -> None in
    let t4 = now_ns () in
    let expected = List.sort compare (reference_search records q) in
    let err =
      if r.Wire.sr_receipt.Vm.r_output <> Ok [ "paid" ] then "settlement not paid"
      else if not verified then "client-side verification failed"
      else if Option.map (List.sort compare) ids <> Some expected then
        "decrypted ids disagree with the plaintext oracle"
      else ""
    in
    { (failed err) with
      s_lat = t4 - t0; s_verify = t3 - t2; s_decrypt = t4 - t3;
      s_results = List.length ers; s_gas = r.Wire.sr_receipt.Vm.r_gas_used;
      s_vo = List.fold_left (fun n (_, claims) -> n + vo_bytes claims) 0 parts;
      s_parts = List.length parts }
  | Ok (Wire.Found _) -> failed "reply for another request id"
  | Ok _ -> failed "unexpected reply to a search"
  | Error e -> failed (Client.error_to_string e)

(* /proc readings, reported raw; run.py turns them into metrics. *)
let read_first_line path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

(* utime + stime of [pid], in clock ticks. *)
let cpu_ticks pid =
  let s = read_first_line (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  match words rest with
  | _state :: fields -> int_of_string (List.nth fields 10) + int_of_string (List.nth fields 11)
  | [] -> failwith "malformed /proc/pid/stat"

let host_cpu () =
  match words (read_first_line "/proc/stat") with
  | "cpu" :: fields -> List.map int_of_string fields
  | _ -> []

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_ints xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]"

let json_sample s =
  Printf.sprintf "[%s, %d, %d, %d, %d, %d, %d, %d, %d, %d, %d, %s]" (json_str s.s_id) s.s_lat
    s.s_gen s.s_rpc s.s_verify s.s_decrypt s.s_tokens s.s_results s.s_gas s.s_vo s.s_parts
    (json_str s.s_err)

(* A member's live metrics, in Prometheus text. *)
let stats_text admin = snd (or_fail "stats" (Client.stats admin))

let counter_in text name =
  let n = String.length name in
  List.fold_left
    (fun acc line ->
      if String.length line > n && String.sub line 0 n = name && (line.[n] = ' ' || line.[n] = '{')
      then acc +. float_of_string (List.nth (words line) (List.length (words line) - 1))
      else acc)
    0. (String.split_on_char '\n' text)

(* Each accepted Build/Insert starts one background witness warm pass
   per member; wait until [shipments] of them have completed, so no
   search or shipment runs beside a pass. *)
let await_warms admins ~shipments =
  let deadline = Obs.Clock.now () +. 60. in
  let target = float_of_int (shipments * List.length admins) in
  let rec go () =
    let done_ =
      List.fold_left
        (fun acc a -> acc +. counter_in (stats_text a) "slicer_net_background_warms_total")
        0. admins
    in
    if done_ < target then begin
      if Obs.Clock.now () > deadline then failwith "background witness warm did not finish";
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let scrape ~out ~tag admins =
  List.iteri
    (fun i admin ->
      let oc = open_out (Printf.sprintf "%s.%s.%d.prom" out tag i) in
      output_string oc (stats_text admin);
      close_out oc)
    admins

type op = Search of query | Insert

let drive tbl =
  let seed = arg tbl "seed" and data = arg tbl "data" and width = arg_int tbl "width" in
  let endpoint_s = arg tbl "endpoint" in
  let endpoint = endpoint_of endpoint_s in
  let batch = arg_int tbl "insert-batch" in
  let conns = arg_int tbl "conns" in
  let out = arg tbl "out" in
  let admins =
    List.map
      (fun m ->
        or_fail "admin connect"
          (Client.connect ~name:"perfbench-admin" ~provision:false (endpoint_of m)))
      (args_all tbl "member")
  in
  let pids = List.map int_of_string (args_all tbl "pid") in
  let attrs = arg_int tbl "attrs" in
  let records = ref (initial_records ~data ~width ~attrs (arg_int tbl "records")) in
  (* The owner runs in a child process commanded over a pipe. *)
  let owner_in, owner_w = Unix.pipe ~cloexec:true () in
  let owner_r, owner_out = Unix.pipe ~cloexec:true () in
  let owner_pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "owner"; "--endpoint"; endpoint_s; "--data"; data;
         "--width"; string_of_int width; "--records"; arg tbl "records";
         "--attrs"; string_of_int attrs;
         "--insert-batch"; string_of_int batch |]
      owner_in owner_out Unix.stderr
  in
  Unix.close owner_in;
  Unix.close owner_out;
  let to_owner = Unix.out_channel_of_descr owner_w in
  let from_owner = Unix.in_channel_of_descr owner_r in
  let owner_line expect =
    match words (input_line from_owner) with
    | w :: nums when w = expect -> List.map int_of_string nums
    | _ -> failwith ("owner: expected " ^ expect)
    | exception End_of_file -> failwith "owner process exited early"
  in
  let finish_owner () =
    close_out_noerr to_owner;
    match Unix.waitpid [] owner_pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "owner process failed"
  in
  let build_ns = List.hd (owner_line "built") in
  let users = List.init conns (fun i -> provision ~seed (Printf.sprintf "user%d" i) endpoint) in
  await_warms admins ~shipments:1;
  print_endline "ready";
  (* run.py answers once it has pinned this process to its core. *)
  ignore (input_line stdin);
  let inserts = ref [] in
  (* An Insert pauses the searches: the owner ships it, the users
     refresh, and the server's warm pass for it finishes. The pause is
     not search time; [paused] keeps it out of the search rate and
     [paused_ticks] the server side's CPU for it out of the search CPU. *)
  let paused = ref 0 and paused_ticks = ref 0 in
  let server_ticks () = List.fold_left (fun n pid -> n + cpu_ticks pid) 0 pids in
  let insert ?(last = false) ~in_phase () =
    let t0 = now_ns () and c0 = server_ticks () in
    output_string to_owner "insert\n";
    flush to_owner;
    (match owner_line "inserted" with
     | [ owner_ns; total_ns ] -> inserts := (owner_ns, total_ns, in_phase) :: !inserts
     | _ -> failwith "owner: malformed insert reply");
    records := !records @ insert_batch ~data ~width ~attrs ~size:batch (List.length !inserts - 1);
    List.iter refresh users;
    (* After the last Insert nothing runs that a warm pass could slow. *)
    if not last then await_warms admins ~shipments:(1 + List.length !inserts);
    if in_phase = 1 then begin
      paused := !paused + (now_ns () - t0);
      paused_ticks := !paused_ticks + (server_ticks () - c0)
    end
  in
  let candidates = candidate_queries ~data ~width !records in
  let warm, stream =
    match arg tbl "stream" with
    | "cold" -> ([], Sore.shuffle ~rng:(Drbg.create ~seed:("perfbench-cold:" ^ seed)) candidates)
    | "zipf" ->
      let pool = take (arg_int tbl "pool") candidates in
      (pool, zipf_draws ~seed ~n:(arg_int tbl "searches") pool)
    | s -> failwith ("unknown stream " ^ s)
  in
  (* [k] Inserts split the stream into [k + 1] equal parts. *)
  let k = arg_int tbl "inserts" in
  let n = List.length stream in
  let marks = List.init k (fun j -> (j + 1) * n / (k + 1)) in
  let ops =
    List.concat
      (List.mapi (fun i q -> if List.mem (i + 1) marks then [ Search q; Insert ] else [ Search q ])
         stream)
  in
  if conns > 1 && k > 0 then failwith "inserts in the measured phase need one connection";
  (* Fixed warm-up: every pool query once, unmeasured. *)
  List.iter (fun q -> ignore (search (List.hd users) ~records:!records q)) warm;
  scrape ~out ~tag:"before" admins;
  let cpu0 = List.map cpu_ticks pids and host0 = host_cpu () in
  let p0 = Prime_rep.cache_stats () in
  let t0 = now_ns () in
  let run_conn i u =
    let mine = List.filteri (fun j _ -> j mod conns = i) ops in
    List.rev
      (List.fold_left
         (fun acc op ->
           match op with
           | Search q -> search u ~records:!records q :: acc
           | Insert ->
             insert ~in_phase:1 ();
             acc)
         [] mine)
  in
  let samples =
    match users with
    | [ u ] -> run_conn 0 u
    | users ->
      let results = Array.make conns [] in
      let threads =
        List.mapi (fun i u -> Thread.create (fun () -> results.(i) <- run_conn i u) ()) users
      in
      List.iter Thread.join threads;
      List.concat (Array.to_list results)
  in
  let t1 = now_ns () in
  let p1 = Prime_rep.cache_stats () in
  let cpu1 = List.map cpu_ticks pids and host1 = host_cpu () in
  scrape ~out ~tag:"after" admins;
  let tail = arg_int tbl "tail-inserts" in
  for i = 1 to tail do
    insert ~last:(i = tail && not (Hashtbl.mem tbl "probe")) ~in_phase:0 ()
  done;
  (* Router probe: a few searches through a pass-through router, so
     the router layer is timed on workloads that otherwise bypass it. *)
  let probe =
    match Hashtbl.find_opt tbl "probe" with
    | None -> []
    | Some ep ->
      let u = provision ~seed "probe" (endpoint_of ep) in
      let qs = take 40 stream in
      let s = List.map (search u ~records:!records) qs in
      Client.close u.conn;
      s
  in
  List.iter (fun u -> Client.close u.conn) users;
  List.iter Client.close admins;
  output_string to_owner "quit\n";
  finish_owner ();
  let oc = open_out out in
  Printf.fprintf oc
    "{\"build_ns\": %d, \"phase_ns\": %d, \"paused_ns\": %d, \"paused_ticks\": %d,\n \"searches\": [%s],\n \
     \"probe\": [%s],\n \"inserts\": [%s],\n \"cpu_before\": %s, \"cpu_after\": %s,\n \
     \"host_before\": %s, \"host_after\": %s,\n \"client_prime\": %s}\n"
    build_ns (t1 - t0) !paused !paused_ticks
    (String.concat ",\n  " (List.map json_sample samples))
    (String.concat ",\n  " (List.map json_sample probe))
    (String.concat ", "
       (List.rev_map (fun (a, b, c) -> json_ints [ a; b; c ]) !inserts))
    (json_ints cpu0) (json_ints cpu1) (json_ints host0) (json_ints host1)
    (json_ints
       [ p0.Prime_rep.cs_hits; p0.Prime_rep.cs_misses; p1.Prime_rep.cs_hits;
         p1.Prime_rep.cs_misses ]);
  close_out oc

(* ---- host mode ---- *)

let host tbl =
  let lock = Mutex.create () in
  let samples = Buffer.create 65536 in
  let timed handle req =
    let tag =
      match req with
      | Wire.Search { request_id; _ } -> Some ("search", request_id)
      | Wire.Insert { request_id; _ } -> Some ("insert", request_id)
      | _ -> None
    in
    match tag with
    | None -> handle req
    | Some (kind, id) ->
      let t0 = now_ns () in
      let resp = handle req in
      let dt = now_ns () - t0 in
      Mutex.protect lock (fun () -> Printf.bprintf samples "%s %s %d\n" kind id dt);
      resp
  in
  let handler, tick, close =
    match arg tbl "kind" with
    | "server" ->
      let shard = (arg_int tbl "shard-id", arg_int tbl "shard-count") in
      let instance = if snd shard > 1 then Printf.sprintf "shard-%d" (fst shard) else "" in
      Obs.set_instance instance;
      let cfg =
        { Store.dir = arg tbl "state-dir"; fsync = true; snapshot_bytes = 4 * 1024 * 1024 }
      in
      (match Service.recover ~instance ~shard cfg with
       | Error e -> failwith ("recovery failed: " ^ e)
       | Ok (svc, _) ->
         ( Service.handle svc,
           (fun () -> ignore (Service.settle_tick svc)),
           fun () -> Option.iter Store.close (Service.store svc) ))
    | "router" ->
      Obs.set_instance "router";
      let topo = Cluster.Topology.create (List.map endpoint_of (args_all tbl "shard")) in
      let router = Cluster.Router.create ~instance:"router" topo in
      (Cluster.Router.handle router, ignore, fun () -> Cluster.Router.close router)
    | k -> failwith ("unknown host kind " ^ k)
  in
  let config = { Server.default_config with Server.endpoint = Server.Tcp ("127.0.0.1", 0) } in
  let server = Server.start ~config (timed handler) in
  Printf.printf "listening on 127.0.0.1:%d\n%!" (Server.port server);
  let stopping = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stopping := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stopping := true));
  while not !stopping do
    Unix.sleepf 0.2;
    tick ()
  done;
  Server.stop server;
  close ();
  let oc = open_out (arg tbl "samples") in
  Buffer.output_buffer oc samples;
  close_out oc

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: mode :: rest -> (
    let tbl = parse_args rest in
    try
      match mode with
      | "owner" -> owner tbl
      | "drive" -> drive tbl
      | "host" -> host tbl
      | m -> failwith ("unknown mode " ^ m)
    with Failure msg ->
      prerr_endline ("perfbench " ^ mode ^ ": " ^ msg);
      exit 1)
  | _ ->
    prerr_endline "usage: perfbench (owner|drive|host) [--key value ...]";
    exit 2
