(** Symbolic operators available in DSL input expressions: the built-in
    [surface] marker and [upwind]/[central] flux reconstructions, plus a
    registry for user-defined operators ("the ability to define and import
    any custom symbolic operator"). *)

open Finch_symbolic

exception Operator_error of string

type t = Expr.t list -> Expr.t
(** An operator rewrites its argument list into an expression. *)

val define : string -> t -> unit
(** Register (or replace) the operator of that name. *)

val generation : unit -> int
(** How many {!define}s have run: a key for anything derived from an
    expansion, since a redefinition may change it. *)

val is_defined : string -> bool
val find : string -> t option

val normal_sym : int -> Expr.t
(** [normal_sym k] is the symbol NORMAL_k (1-based component of the
    outward face normal). *)

val vector_components : Expr.t -> Expr.t list
val normal_dot : Expr.t -> Expr.t

val upwind : t
(** First-order upwind reconstruction:
    [upwind(b, u)] expands to
    [conditional(b.n > 0, (b.n)*CELL1_u, (b.n)*CELL2_u)]. *)

val central : t
(** Central (average) reconstruction — the second-order alternative. *)

val surface : t
(** Marks a term as a surface integrand (multiplies by the SURFACE
    symbol, which survives simplification as in the paper's printouts). *)

val expand : Expr.t -> Expr.t
(** Expand every registered operator, bottom-up. Unregistered calls are
    left in place (they may be callback invocations). *)

val is_surface_term : Expr.t -> bool
val strip_surface : Expr.t -> Expr.t
