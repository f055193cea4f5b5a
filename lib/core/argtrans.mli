(** Argument transformations (paper Lesson 9).

    The paper found it "sometimes necessary to transform logical operator
    arguments in a way that is similar to the algebraic operator
    transformations", under rules "completely different than the
    algebraic operator transformations". This module is that second rule
    group: a normalization pass over predicate arguments that runs before
    algebraic optimization —

    - constant folding: atoms comparing two constants evaluate away;
    - tautology elimination: [x == x], [x <= x] and friends drop out;
    - duplicate conjuncts collapse (they would otherwise square their
      estimated selectivity);
    - contradictions ([x == 1 && x == 2], or any atom folding to false)
      reduce the whole conjunction to a canonical false atom whose
      selectivity is (near) zero;
    - operand canonicalization: constants move to the right-hand side.

    All optimizer entry points (cost-based, greedy, naive) run this pass,
    so their estimates agree on degenerate inputs. *)

module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical

val atom : Pred.atom -> [ `Keep of Pred.atom | `True | `False ]
(** Normalize one atom. *)

val pred : Pred.t -> [ `Pred of Pred.t | `Contradiction ]
(** Normalize a conjunction; [`Pred []] is [true]. *)

val expr : Logical.t -> Logical.t
(** Normalize every Select and Join argument in an expression. A
    contradictory Select becomes [Select [false_atom]]; a contradictory
    Join keeps its link atoms and adds [false_atom]. *)
