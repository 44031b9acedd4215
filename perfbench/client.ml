(* A minimal HTTP/1.1 client and the `pchls serve` child process the serve
   workloads drive. One request per connection ([Connection: close]), so
   every request crosses the daemon's accept loop and admission queue. *)

type response = { status : int; body : string }

let request_bytes ~meth ~path ?(id = "") body =
  let id_header = if id = "" then "" else Printf.sprintf "X-Request-Id: %s\r\n" id in
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n%sContent-Type: application/json\r\n\
     Content-Length: %d\r\nConnection: close\r\n\r\n%s"
    meth path id_header (String.length body) body

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_response raw =
  match String.index_opt raw ' ' with
  | None -> failwith ("malformed response: " ^ String.escaped raw)
  | Some sp ->
    let status = int_of_string (String.sub raw (sp + 1) 3) in
    let marker = "\r\n\r\n" in
    let rec find i =
      if i + 4 > String.length raw then String.length raw
      else if String.sub raw i 4 = marker then i + 4
      else find (i + 1)
    in
    let start = find 0 in
    { status; body = String.sub raw start (String.length raw - start) }

(* Send raw request bytes, read to EOF. *)
let exchange ~port bytes =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all fd bytes 0;
      parse_response (read_all fd))

let get ~port path = exchange ~port (request_bytes ~meth:"GET" ~path "")

(* --- the daemon ---------------------------------------------------------- *)

type daemon = {
  pid : int;
  mutable port : int;
  access_log : string;
  mutable alive : bool;
}

let running : daemon list ref = ref []

let stop d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigint with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid);
    running := List.filter (fun x -> x != d) !running
  end

let () = at_exit (fun () -> List.iter stop !running)

let read_file path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else ""

(* The daemon prints "# pchls serve listening on HOST:PORT ..." once bound. *)
let listening_port out =
  let re = Str.regexp "listening on [0-9.]+:\\([0-9]+\\)" in
  let text = read_file out in
  match Str.search_forward re text 0 with
  | _ -> Some (int_of_string (Str.matched_group 1 text))
  | exception Not_found -> None

(* [name] names the daemon's files in [dir]: its output and access log. *)
let start ~exe ~dir ~name ~jobs ~trace =
  let out = Filename.concat dir (name ^ ".out") in
  let access_log = Filename.concat dir (name ^ ".access.jsonl") in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ out; access_log ];
  let args =
    [ exe; "serve"; "--port"; "0"; "--threads"; "2"; "--jobs"; string_of_int jobs;
      "--cache-mem-entries"; "0"; "--access-log"; access_log; "--no-color" ]
    @ if trace then [ "--trace" ] else []
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let d = { pid; port = 0; access_log; alive = true } in
  running := d :: !running;
  let give_up = Unix.gettimeofday () +. 30. in
  let rec wait_port () =
    match listening_port out with
    | Some port -> port
    | None ->
      if Unix.gettimeofday () > give_up then failwith "daemon did not start";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        d.alive <- false;
        failwith ("daemon exited: " ^ read_file out));
      Unix.sleepf 0.005;
      wait_port ()
  in
  let port = wait_port () in
  d.port <- port;
  let rec healthy () =
    match get ~port "/healthz" with
    | { status = 200; _ } -> ()
    | _ | (exception Unix.Unix_error _) ->
      if Unix.gettimeofday () > give_up then failwith "daemon not healthy";
      Unix.sleepf 0.005;
      healthy ()
  in
  healthy ();
  d

(* VmHWM of the daemon, in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let re = Str.regexp "VmHWM:[ \t]*\\([0-9]+\\) kB" in
  match Str.search_forward re status 0 with
  | _ -> float_of_string (Str.matched_group 1 status) /. 1024.
  | exception Not_found -> nan
