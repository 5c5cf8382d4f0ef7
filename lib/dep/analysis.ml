type access = {
  stmt : Stmt.t;
  ref_ : Reference.t;
  acc : [ `Read | `Write ];
  path : (int * Loop.header) list;
  pos : int * int;
}

let scalar_ref name = Reference.make ("$" ^ name) []

let accesses ?(outer = []) (block : Loop.block) =
  let occ = ref 0 in
  let spos = ref 0 in
  let out = ref [] in
  let outer_path =
    List.map
      (fun h ->
        incr occ;
        (!occ, h))
      outer
  in
  let emit stmt path =
    let p = !spos in
    incr spos;
    let reads =
      List.map (fun r -> (r, `Read, 0)) (Stmt.reads stmt)
      @ List.map (fun x -> (scalar_ref x, `Read, 0)) (Stmt.scalars_read stmt)
    in
    let writes =
      List.map (fun r -> (r, `Write, 1)) (Stmt.writes stmt)
      @ List.map
          (fun x -> (scalar_ref x, `Write, 1))
          (Stmt.scalars_written stmt)
    in
    List.iter
      (fun (ref_, acc, sub) ->
        out := { stmt; ref_; acc; path; pos = (p, sub) } :: !out)
      (reads @ writes)
  in
  let rec go_block path b =
    List.iter
      (fun node ->
        match node with
        | Loop.Stmt s -> emit s path
        | Loop.Loop l ->
          incr occ;
          go_block (path @ [ (!occ, l.header) ]) l.body)
      b
  in
  go_block outer_path block;
  List.rev !out

let common_prefix p1 p2 =
  let rec go p1 p2 =
    match (p1, p2) with
    | (id1, h1) :: r1, (id2, _) :: r2 when id1 = id2 -> h1 :: go r1 r2
    | _, _ -> []
  in
  go p1 p2

type memo = Depend.memo

let create_memo = Depend.create_memo

let pair_deps ~memo (a, sa) (b, sb) =
  let (src, src_site), (snk, snk_site) =
    if a.pos <= b.pos then ((a, sa), (b, sb)) else ((b, sb), (a, sa))
  in
  let ncommon = List.length (common_prefix src.path snk.path) in
  Depend.test_pair ~memo ~ncommon
    ~src:(src.stmt, src_site, src.acc)
    ~snk:(snk.stmt, snk_site, snk.acc)

let deps ?memo ?(include_input = false) ?outer block =
  let memo = match memo with Some m -> m | None -> create_memo () in
  let accs =
    List.map
      (fun a -> (a, Depend.site memo ~path:(List.map snd a.path) a.ref_))
      (accesses ?outer block)
  in
  let rec pairs acc = function
    | [] -> acc
    | ((a, _) as pa) :: rest ->
      let acc =
        List.fold_left
          (fun acc ((b, _) as pb) ->
            if not (String.equal a.ref_.Reference.array b.ref_.Reference.array)
            then acc
            else if
              a.acc = `Read && b.acc = `Read && not include_input
            then acc
            else List.rev_append (pair_deps ~memo pa pb) acc)
          acc rest
      in
      pairs acc rest
  in
  let self_deps =
    List.filter_map
      (fun (a, site) ->
        if a.acc = `Write then Depend.test_self ~memo (a.stmt, site) else None)
      accs
  in
  self_deps @ List.rev (pairs [] accs)

let deps_in_nest ?memo ?include_input (l : Loop.t) =
  deps ?memo ?include_input [ Loop.Loop l ]
