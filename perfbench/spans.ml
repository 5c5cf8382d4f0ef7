(* In-memory span recorder for the traced run. Spans wrap calls into the
   layers' public functions from outside the library; each records its
   name, start, end, parent span and request id. Recording is
   single-domain: the traced passes run on the main domain only. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : string;  (** request id, inherited from the parent when not given *)
  t0 : int64;
  t1 : int64;
}

let now_ns = Locality_obs.Obs.now_ns
let now_s () = Int64.to_float (now_ns ()) *. 1e-9
let recording = ref false
let recorded : span list ref = ref []
let stack : (int * string) list ref = ref []
let next_id = ref 0

let with_span ?req name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited =
      match !stack with (p, r) :: _ -> (p, r) | [] -> (-1, "")
    in
    let req = Option.value req ~default:inherited in
    stack := (id, req) :: !stack;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      stack := List.tl !stack;
      recorded := { id; name; parent; req; t0; t1 } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let write path =
  let module J = Locality_obs.Json in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (J.obj
           [
             ("id", J.int s.id);
             ("name", J.str s.name);
             ("parent", J.int s.parent);
             ("req", J.str s.req);
             ("start_ns", J.str (Int64.to_string s.t0));
             ("end_ns", J.str (Int64.to_string s.t1));
           ]);
      output_char oc '\n')
    (List.rev !recorded);
  close_out oc
