type t = {
  ranked : (string * Poly.t) list;
  original : string list;
}

let compute ?memo ?deps ?(cls = 4) nest =
  let costs = Loopcost.all_costs ?memo ?deps ~nest ~cls () in
  (* Stable sort by decreasing dominant cost keeps the original relative
     order of tied loops, minimising gratuitous permutation. *)
  let ranked =
    List.stable_sort (fun (_, a) (_, b) -> Poly.compare_dominant b a) costs
  in
  { ranked; original = List.map fst costs }

let order t = List.map fst t.ranked
let innermost t = fst (List.hd (List.rev t.ranked))

let cost_of t l = List.assoc l t.ranked

let is_memory_order t =
  let costs = List.map (cost_of t) t.original in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) ->
      Poly.compare_dominant a b >= 0 && nonincreasing rest
    | [ _ ] | [] -> true
  in
  nonincreasing costs

let inner_is_best t =
  match List.rev t.original with
  | [] -> true
  | inner :: _ ->
    let ci = cost_of t inner in
    List.for_all (fun (_, c) -> Poly.compare_dominant c ci >= 0) t.ranked

let pp ppf t =
  Format.fprintf ppf "@[<v>memory order: %s@,"
    (String.concat " " (order t));
  List.iter
    (fun (l, c) -> Format.fprintf ppf "  LoopCost(%s) = %a@," l Poly.pp c)
    t.ranked;
  Format.fprintf ppf "@]"
