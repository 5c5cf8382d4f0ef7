(** Lowering from the surface AST to the IR.

    Array names come from the declarations; [SQRT], [ABS], [EXP], [SIN],
    [COS], [MIN] and [MAX] are intrinsics; any other called name must be a
    declared array. Identifiers that are neither loop indices, parameters
    nor arrays denote scalar variables.

    Inside a real expression, an operator subtree whose leaves are all
    integer literals, loop indices or parameters ([+ - * /], unary minus,
    [MIN], [MAX]) lowers to one integer {!Stmt.Iexpr}: Fortran evaluates
    it in integer arithmetic, so [N/2] truncates. A bare integer literal
    stays a real constant. This is the form {!Stmt.pp} prints a compound
    integer expression in, so printing and parsing give back the same
    program. *)

exception Error of string

val expr_to_ir : Ast.expr -> Expr.t
(** Integer expression (subscripts, bounds); [MIN]/[MAX] calls and [/]
    map to the IR's bound operators. @raise Error on floats or other
    calls. *)

val program : Ast.program -> Program.t
(** @raise Error on name or arity problems; the result is validated. *)

val parse_program : string -> Program.t
(** Parse and lower in one step.
    @raise Parser.Error / Lexer.Error / Error. *)
