type t = {
  line : int;
  col : int;
}

let none = { line = 0; col = 0 }

let is_none l = l.line = 0

let make ~line ~col = { line; col }

let to_string l = Printf.sprintf "line %d, column %d" l.line l.col
