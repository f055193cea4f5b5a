(** The paper's database: schema and Table 1 catalog statistics.

    Two rows of Table 1 are partly illegible in the archival scan (the
    Country set column and the Task cardinality column); the values used
    here are reconstructed so that every derived quantity the paper
    reasons with still holds — see the comments in the implementation and
    the substitution notes in DESIGN.md. *)

val schema : unit -> Schema.t
(** Classes: Person, Employee, Department, Plant, Job, City, Capital,
    Country, Task, Information. *)

val catalog : unit -> Catalog.t
(** Fresh catalog with Table 1 collections, distinct-value statistics and
    {e no} indexes; add the ones an experiment needs from the index
    definitions below. *)

(** Index definitions used by the paper's experiments. *)

val idx_cities_mayor_name : Catalog.index_def
(** Path index on [Cities.mayor().name()] (Queries 2 and 3). *)

val idx_tasks_time : Catalog.index_def
(** Index on [Tasks.time] (Query 4). *)

val idx_employees_name : Catalog.index_def
(** Index on [Employees.name] (Query 4). *)

val catalog_with_indexes : unit -> Catalog.t
(** [catalog ()] plus the three indexes above. *)
