exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let rec expr_to_ir (e : Ast.expr) : Expr.t =
  match e with
  | Ast.Num_int n -> Expr.Int n
  | Ast.Num_float f -> fail "float %g in integer context" f
  | Ast.Id x -> Expr.Var x
  | Ast.Call (f, [ a; b ]) when String.uppercase_ascii f = "MIN" ->
    Expr.Min (expr_to_ir a, expr_to_ir b)
  | Ast.Call (f, [ a; b ]) when String.uppercase_ascii f = "MAX" ->
    Expr.Max (expr_to_ir a, expr_to_ir b)
  | Ast.Call (f, _) -> fail "call to %s in integer context" f
  | Ast.Neg a -> Expr.Neg (expr_to_ir a)
  | Ast.Bin (op, a, b) -> (
    let a = expr_to_ir a and b = expr_to_ir b in
    match op with
    | Ast.Add -> Expr.Add (a, b)
    | Ast.Sub -> Expr.Sub (a, b)
    | Ast.Mul -> Expr.Mul (a, b)
    | Ast.Div -> Expr.Div (a, b))

type ctx = {
  arrays : (string, int) Hashtbl.t;  (** name -> rank *)
  mutable indices : string list;  (** loop indices in scope *)
  params : string list;
}

let intrinsic1 = function
  | "SQRT" -> Some Stmt.Sqrt
  | "ABS" -> Some Stmt.Abs
  | "EXP" -> Some Stmt.Exp
  | "SIN" -> Some Stmt.Sin
  | "COS" -> Some Stmt.Cos
  | _ -> None

let intrinsic2 = function
  | "MIN" -> Some Stmt.Fmin
  | "MAX" -> Some Stmt.Fmax
  | _ -> None

let is_minmax f =
  match String.uppercase_ascii f with "MIN" | "MAX" -> true | _ -> false

(* A subtree built only from integer literals, loop indices and
   PARAMETERs under + - * /, unary minus, MIN and MAX is Fortran integer
   arithmetic: N/2 truncates. *)
let rec int_only ctx (e : Ast.expr) =
  match e with
  | Ast.Num_int _ -> true
  | Ast.Id x -> List.mem x ctx.indices || List.mem x ctx.params
  | Ast.Neg a -> int_only ctx a
  | Ast.Bin (_, a, b) -> int_only ctx a && int_only ctx b
  | Ast.Call (f, [ a; b ]) when is_minmax f -> int_only ctx a && int_only ctx b
  | Ast.Num_float _ | Ast.Call _ -> false

let rec rexpr ctx (e : Ast.expr) : Stmt.rexpr =
  match e with
  | (Ast.Neg _ | Ast.Bin _ | Ast.Call _) when int_only ctx e ->
    Stmt.Iexpr (expr_to_ir e)
  | Ast.Num_int n -> Stmt.Const (float_of_int n)
  | Ast.Num_float f -> Stmt.Const f
  | Ast.Id x ->
    if List.mem x ctx.indices || List.mem x ctx.params then
      Stmt.Iexpr (Expr.Var x)
    else if Hashtbl.mem ctx.arrays x then
      fail "array %s used without subscripts" x
    else Stmt.Scalar x
  | Ast.Neg a -> Stmt.Unop (Stmt.Fneg, rexpr ctx a)
  | Ast.Bin (op, a, b) ->
    let a = rexpr ctx a and b = rexpr ctx b in
    let op =
      match op with
      | Ast.Add -> Stmt.Fadd
      | Ast.Sub -> Stmt.Fsub
      | Ast.Mul -> Stmt.Fmul
      | Ast.Div -> Stmt.Fdiv
    in
    Stmt.Binop (op, a, b)
  | Ast.Call (f, args) -> (
    let fu = String.uppercase_ascii f in
    match (intrinsic1 fu, intrinsic2 fu, args) with
    | Some op, _, [ a ] -> Stmt.Unop (op, rexpr ctx a)
    | Some _, _, _ -> fail "%s expects one argument" fu
    | None, Some op, [ a; b ] -> Stmt.Binop (op, rexpr ctx a, rexpr ctx b)
    | None, Some _, _ -> fail "%s expects two arguments" fu
    | None, None, _ -> (
      match Hashtbl.find_opt ctx.arrays f with
      | Some rank ->
        if List.length args <> rank then
          fail "array %s has rank %d, used with %d subscripts" f rank
            (List.length args);
        Stmt.Load (Reference.make f (List.map expr_to_ir args))
      | None -> fail "unknown function or array %s" f))

let rec stmt ctx (s : Ast.stmt) : Loop.node =
  match s with
  | Ast.Assign { name; subs = None; rhs } ->
    if Hashtbl.mem ctx.arrays name then
      fail "array %s assigned without subscripts" name;
    Loop.Stmt (Stmt.scalar_assign name (rexpr ctx rhs))
  | Ast.Assign { name; subs = Some subs; rhs } -> (
    match Hashtbl.find_opt ctx.arrays name with
    | None -> fail "assignment to undeclared array %s" name
    | Some rank ->
      if List.length subs <> rank then
        fail "array %s has rank %d, used with %d subscripts" name rank
          (List.length subs);
      Loop.Stmt
        (Stmt.assign
           (Reference.make name (List.map expr_to_ir subs))
           (rexpr ctx rhs)))
  | Ast.Do { index; lb; ub; step; body } ->
    let lb = expr_to_ir lb and ub = expr_to_ir ub in
    ctx.indices <- index :: ctx.indices;
    let body = List.map (stmt ctx) body in
    ctx.indices <- List.filter (fun x -> x <> index) ctx.indices;
    Loop.Loop (Loop.loop ~step index lb ub body)

let program (p : Ast.program) : Program.t =
  let arrays = Hashtbl.create 16 in
  List.iter
    (fun (name, extents) -> Hashtbl.replace arrays name (List.length extents))
    p.Ast.decls;
  let ctx = { arrays; indices = []; params = List.map fst p.Ast.params } in
  let decls =
    List.map
      (fun (name, extents) -> Decl.make name (List.map expr_to_ir extents))
      p.Ast.decls
  in
  let body = List.map (stmt ctx) p.Ast.body in
  let prog = Program.make ~name:p.Ast.name ~params:p.Ast.params decls body in
  match Program.validate prog with
  | Ok () -> prog
  | Error msg -> fail "invalid program: %s" msg

let parse_program src = program (Parser.parse src)
