(** Source locations for ZQL front-end diagnostics (1-based line and
    column of a token's first character). *)

type t = {
  line : int;
  col : int;
}

val none : t
(** The absent location (line 0) — used for synthesized nodes. Never
    printed by {!to_string} callers that check {!is_none} first. *)

val is_none : t -> bool

val make : line:int -> col:int -> t

val to_string : t -> string
(** ["line L, column C"]. *)
