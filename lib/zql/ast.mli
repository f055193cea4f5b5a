(** Abstract syntax of the ZQL query language.

    ZQL is a standalone rendition of the paper's ZQL[C++]: SQL-shaped
    object queries with range variables over collections or set-valued
    paths, path expressions, [Newobject] projections and existentially
    quantified subqueries.

    {[
      SELECT Newobject(e.name, e.dept.name)
      FROM Employee e IN Employees
      WHERE e.dept.plant.location == "Dallas" && e.age >= 32
      ORDER BY e.name
    ]}

    [ORDER BY] compiles to the optimizer's required sort-order physical
    property rather than to an operator — the search decides whether a
    sort is actually needed. *)

type path = {
  p_root : string;  (** range variable *)
  p_steps : string list;  (** attribute steps, possibly empty *)
  p_pos : Loc.t;
      (** location of the path's first identifier ({!Loc.none} on
          synthesized nodes) — carried into simplification so type
          errors name the offending source position *)
}

type expr =
  | Path of path
  | Lit of Oodb_storage.Value.t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type cond =
  | Cmp of cmp * expr * expr
  | And of cond * cond
  | Exists of query  (** [EXISTS (SELECT ...)] *)

and range = {
  r_class : string option;  (** optional class annotation, as in [Employee e IN ...] *)
  r_var : string;
  r_src : src;
  r_pos : Loc.t;  (** location of the range's first token *)
}

and src =
  | Coll of string  (** named collection *)
  | Set_path of path  (** set-valued component of an earlier range variable *)

and select_item = { si_expr : expr; si_as : string option }

and setop = Union | Intersect | Except
(** [SELECT ... UNION SELECT ...] and friends, with ZQL's set (distinct)
    semantics; branches must deliver identical scopes. *)

and query = {
  q_select : select_item list;  (** empty list encodes [SELECT *] *)
  q_from : range list;
  q_where : cond option;
  q_order : path option;  (** [ORDER BY path] *)
  q_setops : (setop * query) list;
      (** trailing set-operation branches, applied left to right:
          [q UNION q1 EXCEPT q2] is [((q ∪ q1) ∖ q2)] *)
}

val conjuncts : cond -> cond list
(** Flatten nested [And]s (the result contains no [And]). *)

val pp_path : Format.formatter -> path -> unit

val pp_cond : Format.formatter -> cond -> unit

val pp_query : Format.formatter -> query -> unit

exception Unprintable of string
(** Raised by {!to_zql} on literals outside ZQL's concrete syntax
    (negative numbers, references, sets, non-finite floats). *)

val to_zql : query -> string
(** Render as concrete ZQL text that {!Parser.parse} accepts. The
    scenario factory emits every generated query this way, so the real
    lexer/parser/simplifier sit on the fuzz path; its round-trip
    property test pins [parse (to_zql q)] to simplify to the same
    logical expression as [q]. *)
