(* The serve daemon seen from outside: spawn it with an explicit
   environment, time it to its first reply, and drive it with a
   closed-loop client (each connection sends its next request only once
   the previous reply has arrived). *)

let ambient_vars =
  [ "MEMORIA_JOBS"; "MEMORIA_REPLAY"; "MEMORIA_SAMPLE_RATE"; "MEMORIA_STORE";
    "MEMORIA_TELEMETRY" ]

let is_ambient kv =
  List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) ambient_vars

(* The daemon gets no ambient setting except the store it is handed. *)
let daemon_env ~store =
  Array.of_list
    (List.filter (fun kv -> not (is_ambient kv)) (Array.to_list (Unix.environment ()))
    @ [ "MEMORIA_STORE=" ^ store ])

type daemon = { pid : int; socket : string }

let spawn ~memoria ~socket ~store ~jobs =
  (try Sys.remove socket with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process_env memoria
      [| memoria; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs |]
      (daemon_env ~store) devnull devnull Unix.stderr
  in
  Unix.close devnull;
  { pid; socket }

let alive d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> true
  | _ -> false

let connect ?(timeout_s = 30.) d =
  let deadline = Spans.now_s () +. timeout_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Spans.now_s () < deadline && alive d ->
      Unix.close fd;
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

(* Peak resident set of a live process, from /proc. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* SIGTERM drains in-flight work; the exit code must be 0. *)
let shutdown d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] d.pid in
  (try Sys.remove d.socket with Sys_error _ -> ());
  status = Unix.WEXITED 0

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let chunk = Bytes.create 65536

(* Read what is available; return the complete lines received. *)
let read_lines c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "serve closed the connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
    String.split_on_char '\n' (String.sub s 0 last)

let open_conn d = { fd = connect d; buf = Buffer.create 4096 }

let request_reply c line =
  write_all c.fd (line ^ "\n") 0;
  let rec wait () = match read_lines c with [] -> wait () | l :: _ -> l in
  wait ()

(* Spawn to first reply to a trivial probe: the daemon's set-up time. *)
let time_to_first_reply ~memoria ~socket ~store ~jobs ~probe =
  let t0 = Spans.now_s () in
  let d = spawn ~memoria ~socket ~store ~jobs in
  let c = open_conn d in
  ignore (request_reply c probe);
  let dt = Spans.now_s () -. t0 in
  (d, c, dt)

type reply = { idx : int; line : string; latency_ms : float; done_ns : int64 }

(* Closed loop: every connection keeps exactly one request outstanding.
   [next ()] yields the next request (index, line) or [None] when the
   stream is exhausted; once [stop ()] holds no new request is sent and
   the loop ends when the last outstanding reply has arrived. *)
let closed_loop conns ~next ~stop =
  let replies = ref [] in
  let outstanding = Hashtbl.create 4 in
  let send c =
    if not (stop ()) then
      match next () with
      | None -> ()
      | Some (idx, line) ->
        Hashtbl.replace outstanding c.fd (c, idx, Spans.now_ns ());
        write_all c.fd (line ^ "\n") 0
  in
  List.iter send conns;
  while Hashtbl.length outstanding > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) outstanding [] in
    let ready, _, _ = Unix.select fds [] [] 1.0 in
    List.iter
      (fun fd ->
        let c, idx, t0 = Hashtbl.find outstanding fd in
        match read_lines c with
        | [] -> ()
        | line :: _ ->
          let t1 = Spans.now_ns () in
          Hashtbl.remove outstanding fd;
          replies :=
            { idx; line; latency_ms = Int64.to_float (Int64.sub t1 t0) *. 1e-6; done_ns = t1 }
            :: !replies;
          send c)
      ready
  done;
  List.rev !replies
