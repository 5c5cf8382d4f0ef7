module An = Locality_dep.Analysis

type ref_class = Invariant | Consecutive | None_

(* Coefficient of the candidate index in a subscript: [None] marks a
   non-affine subscript that mentions the index (unknown access pattern). *)
let sub_coeff (e : Expr.t) idx =
  match Affine.of_expr e with
  | Some a -> Some (Affine.coeff a idx)
  | None -> if List.mem idx (Expr.vars e) then None else Some 0

let classify ~cls ~(candidate : Loop.header) (r : Reference.t) =
  let idx = candidate.Loop.index in
  let coeffs = List.map (fun s -> sub_coeff s idx) r.Reference.subs in
  match coeffs with
  | [] -> Invariant (* scalar *)
  | first :: rest ->
    let rest_zero = List.for_all (fun c -> c = Some 0) rest in
    (match first with
    | Some 0 when rest_zero -> Invariant
    | Some c when c <> 0 && rest_zero && abs (candidate.Loop.step * c) < cls
      ->
      Consecutive
    | _ -> None_)

let ref_cost_with ~trip ~cls ~(candidate : Loop.header) (r : Reference.t) =
  match classify ~cls ~candidate r with
  | Invariant -> Poly.one
  | Consecutive ->
    let stride =
      match sub_coeff (List.hd r.Reference.subs) candidate.Loop.index with
      | Some c -> abs (candidate.Loop.step * c)
      | None -> 1
    in
    (* trip / (cls / stride) *)
    Poly.mul_rat (Rat.make stride cls) trip
  | None_ -> trip

let ref_cost ~env ~cls ~(candidate : Loop.header) (r : Reference.t) =
  ref_cost_with ~trip:(Trip.closed_trip env candidate) ~cls ~candidate r

(* Per-nest caches shared across candidate loops: closed-form trips per
   header, enclosing headers per statement, and the loop-independent
   part of reference grouping. *)
type ctx = {
  c_nest : Loop.t;
  c_cls : int;
  c_env : Trip.env;
  c_pre : Refgroup.pre;
  c_trips : (string, Poly.t) Hashtbl.t;
  c_headers : (string, Loop.header list) Hashtbl.t;
}

let make_ctx ~deps ~nest ~cls =
  {
    c_nest = nest;
    c_cls = cls;
    c_env = Trip.env_of_nest nest;
    c_pre = Refgroup.prepare ~nest ~deps ~cls;
    c_trips = Hashtbl.create 8;
    c_headers = Hashtbl.create 8;
  }

let ctx_trip ctx (h : Loop.header) =
  match Hashtbl.find_opt ctx.c_trips h.Loop.index with
  | Some t -> t
  | None ->
    let t = Trip.closed_trip ctx.c_env h in
    Hashtbl.replace ctx.c_trips h.Loop.index t;
    t

let ctx_headers ctx (s : Stmt.t) =
  match Hashtbl.find_opt ctx.c_headers s.Stmt.label with
  | Some hs -> hs
  | None ->
    let hs =
      match Loop.enclosing_headers ctx.c_nest s with
      | Some hs -> hs
      | None -> []
    in
    Hashtbl.replace ctx.c_headers s.Stmt.label hs;
    hs

let loop_cost_ctx ctx loop =
  let cls = ctx.c_cls in
  let groups = Refgroup.groups ctx.c_pre ~loop in
  List.fold_left
    (fun acc (g : Refgroup.group) ->
      let rep = g.Refgroup.rep in
      let headers = ctx_headers ctx rep.Refgroup.stmt in
      let candidate =
        List.find_opt
          (fun (h : Loop.header) -> String.equal h.Loop.index loop)
          headers
      in
      let cost =
        match candidate with
        | Some h ->
          let inner =
            ref_cost_with ~trip:(ctx_trip ctx h) ~cls ~candidate:h
              rep.Refgroup.ref_
          in
          List.fold_left
            (fun acc (other : Loop.header) ->
              if String.equal other.Loop.index loop then acc
              else Poly.mul acc (ctx_trip ctx other))
            inner headers
        | None ->
          (* The candidate does not enclose this reference: no reuse can
             be attributed to it; charge one line per iteration. *)
          List.fold_left
            (fun acc (other : Loop.header) -> Poly.mul acc (ctx_trip ctx other))
            Poly.one headers
      in
      Poly.add acc cost)
    Poly.zero groups

let loop_cost ?deps ~nest ~cls loop =
  let deps =
    match deps with
    | Some d -> d
    | None -> An.deps_in_nest ~include_input:true nest
  in
  loop_cost_ctx (make_ctx ~deps ~nest ~cls) loop

let all_costs ?memo ?deps ~nest ~cls () =
  let deps =
    match deps with
    | Some d -> d
    | None -> An.deps_in_nest ?memo ~include_input:true nest
  in
  let ctx = make_ctx ~deps ~nest ~cls in
  List.map (fun l -> (l, loop_cost_ctx ctx l)) (Loop.indices nest)

let group_cost_table ~nest ~cls ~candidates =
  let deps = An.deps_in_nest ~include_input:true nest in
  let env = Trip.env_of_nest nest in
  match candidates with
  | [] -> []
  | first :: _ ->
    let groups = Refgroup.compute ~nest ~deps ~loop:first ~cls in
    List.map
      (fun (g : Refgroup.group) ->
        let rep = g.Refgroup.rep in
        let headers =
          match Loop.enclosing_headers nest rep.Refgroup.stmt with
          | Some hs -> hs
          | None -> []
        in
        let cost_for loop =
          match
            List.find_opt
              (fun (h : Loop.header) -> String.equal h.Loop.index loop)
              headers
          with
          | Some h ->
            let inner = ref_cost ~env ~cls ~candidate:h rep.Refgroup.ref_ in
            List.fold_left
              (fun acc (other : Loop.header) ->
                if String.equal other.Loop.index loop then acc
                else Poly.mul acc (Trip.closed_trip env other))
              inner headers
          | None ->
            List.fold_left
              (fun acc (other : Loop.header) ->
                Poly.mul acc (Trip.closed_trip env other))
              Poly.one headers
        in
        (g, List.map (fun l -> (l, cost_for l)) candidates))
      groups
