(* Symbolic operators available in DSL input expressions.

   Built-ins include the [surface] marker and the [upwind] flux
   reconstruction used by the paper; users can register custom operators
   ("A powerful feature of the DSL is the ability to define and import any
   custom symbolic operator"), which are expanded during the same pass.

   Expansion happens bottom-up on the parsed expression; the result is the
   paper's "expanded symbolic representation" in which [upwind(b, u)]
   becomes

     conditional(b1*NORMAL_1 + b2*NORMAL_2 > 0,
                 (b1*NORMAL_1 + b2*NORMAL_2) * CELL1_u,
                 (b1*NORMAL_1 + b2*NORMAL_2) * CELL2_u)            *)

open Finch_symbolic

exception Operator_error of string

type t = Expr.t list -> Expr.t

let registry : (string, t) Hashtbl.t = Hashtbl.create 16

(* bumped by every [define]: an expansion cached under one generation is
   never served after a redefinition *)
let definitions = ref 0

let define name f =
  Hashtbl.replace registry name f;
  incr definitions

let generation () = !definitions
let is_defined name = Hashtbl.mem registry name
let find name = Hashtbl.find_opt registry name

let normal_sym k = Expr.sym (Printf.sprintf "NORMAL_%d" k)

(* The advective direction argument of [upwind] may be a vector literal
   [\[bx; by\]] or a single expression for 1-D problems. *)
let vector_components = function
  | Expr.Call ("vector", comps) -> comps
  | e -> [ e ]

(* dot(vec, outward normal) as a symbolic expression *)
let normal_dot vec =
  let comps = vector_components vec in
  Expr.add (List.mapi (fun k c -> Expr.mul [ c; normal_sym (k + 1) ]) comps)

(* First-order upwind reconstruction of the advective flux (b.n) u:
   take u from the upwind side of the face. *)
let upwind args =
  match args with
  | [ vec; u ] ->
    let bn = normal_dot vec in
    Expr.cond
      (Expr.cmp Expr.Gt bn Expr.zero)
      (Expr.mul [ bn; Expr.retag_side Expr.Cell1 u ])
      (Expr.mul [ bn; Expr.retag_side Expr.Cell2 u ])
  | _ -> raise (Operator_error "upwind expects (direction, value)")

(* Central (average) flux reconstruction — second-order alternative,
   exercising the paper's claim that other reconstructions slot in the
   same way as [upwind]. *)
let central args =
  match args with
  | [ vec; u ] ->
    let bn = normal_dot vec in
    Expr.mul
      [ bn;
        Expr.Num 0.5;
        Expr.add [ Expr.retag_side Expr.Cell1 u; Expr.retag_side Expr.Cell2 u ] ]
  | _ -> raise (Operator_error "central expects (direction, value)")

(* surface(e): mark e as a surface-integral term.  The marker survives
   simplification as a multiplicative symbol, exactly as in the paper's
   printouts. *)
let surface args =
  match args with
  | [ e ] -> Expr.mul [ Expr.sym "SURFACE"; e ]
  | _ -> raise (Operator_error "surface expects one argument")

let () =
  define "upwind" upwind;
  define "central" central;
  define "surface" surface

(* Expand all registered operators in an expression, bottom-up.  Function
   calls with no registered operator and no numeric meaning are left alone
   (they may be callback invocations handled later). *)
let expand e =
  Expr.rewrite
    (function
      | Expr.Call (name, args) as e -> (
        match find name with Some f -> f args | None -> e)
      | e -> e)
    e

(* True when the (already expanded) term belongs to the surface category. *)
let is_surface_term t = Expr.contains_sym "SURFACE" t

(* Strip the SURFACE marker from a term. *)
let strip_surface t =
  Simplify.simplify (Expr.subst_sym "SURFACE" Expr.one t)
