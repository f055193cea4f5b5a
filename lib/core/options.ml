type t = {
  config : Oodb_cost.Config.t;
  disabled : string list;
  pruning : bool;
  normalize : bool;
  verify : bool;
}

let default =
  { config = Oodb_cost.Config.default;
    disabled = [ "warm-assembly" ];
    pruning = true;
    normalize = true;
    verify = true }

let rule_names = Trules.names @ Irules.names @ Enforcers.names

let disable name t =
  if not (List.mem name rule_names) then
    invalid_arg (Printf.sprintf "Options.disable: unknown rule %s" name);
  if List.mem name t.disabled then t else { t with disabled = name :: t.disabled }

let without_join_commutativity t = disable "join-commute" t

let with_assembly_window n t =
  if n < 1 then invalid_arg "Options.with_assembly_window: window must be >= 1";
  { t with config = { t.config with Oodb_cost.Config.assembly_window = n } }

let with_warm_start t =
  { t with disabled = List.filter (fun r -> r <> "warm-assembly") t.disabled }

let with_batch_size n t =
  if n < 1 then invalid_arg "Options.with_batch_size: batch size must be >= 1";
  { t with config = { t.config with Oodb_cost.Config.batch_size = n } }

let with_config config t = { t with config }

let with_feedback fb t =
  { t with config = { t.config with Oodb_cost.Config.feedback = Some fb } }
