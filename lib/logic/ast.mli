(** Abstract syntax of CSRL (continuous stochastic reward logic).

    Following Section 2.2 of the paper, state formulas are built from
    atomic propositions, negation, disjunction and the probabilistic path
    quantifier [P<>p (phi)]; path formulas are time- and reward-bounded
    next and until.  We add the steady-state operator [S<>p] of CSL (the
    paper omits it only because it concentrates on transient measures and
    refers to the CSL literature for its procedure) and the usual derived
    connectives.

    Intervals are downward closed ([\[0,b\]] or unbounded), matching the
    paper's restriction; see {!Numerics.Time_interval}. *)

type comparison = Lt | Le | Gt | Ge

type state_formula =
  | True
  | False
  | Ap of string                                     (** atomic proposition *)
  | Not of state_formula
  | And of state_formula * state_formula
  | Or of state_formula * state_formula
  | Implies of state_formula * state_formula
  | Prob of comparison * float * path_formula
      (** [Prob (cmp, p, phi)] is [P cmp p (phi)] *)
  | Steady of comparison * float * state_formula
      (** long-run probability bound *)
  | Reward of comparison * float * reward_query
      (** [Reward (cmp, c, q)] is [R cmp c (q)] — an {e expected-reward}
          bound.  This operator is not in the DSN 2002 paper (which bounds
          reward {e probabilities}); it is the standard expectation layer
          of the Markov-reward-model tradition the paper builds on, and is
          provided as an extension. *)

and path_formula =
  | Next of Numerics.Time_interval.t * Numerics.Time_interval.t * state_formula
      (** [Next (i, j, phi)] is [X_I^J phi]: one jump, into a [phi]-state,
          at a time in [I], having accumulated reward in [J] *)
  | Until of
      Numerics.Time_interval.t
      * Numerics.Time_interval.t
      * state_formula
      * state_formula
      (** [Until (i, j, phi, psi)] is [phi U_I^J psi] *)

and reward_query =
  | Cumulative of float      (** [C\[t<=b\]]: [E(Y_b)] *)
  | Reach of state_formula
      (** [F phi]: expected reward accumulated before reaching [Sat phi]
          ([infinity] where that set is not reached almost surely) *)
  | Long_run                 (** [S]: long-run reward rate *)

type query =
  | Formula of state_formula       (** a boolean verdict per state *)
  | Prob_query of path_formula     (** [P=? (phi)]: a number per state *)
  | Steady_query of state_formula  (** [S=? (phi)] *)
  | Reward_query of reward_query   (** [R=? (q)] *)
  | Frontier_query of { points : int; target : float; path : path_formula }
      (** [frontier\[N\] P>=p (phi U\[t<=T\]\[r<=R\] psi)]: the Pareto
          frontier [{(t, r) : P(phi U\[<=t\]\[<=r\] psi) >= p}] resolved
          on an [N]-point time grid.  The parser guarantees [path] is an
          until with finite downward-closed time and reward bounds.
          Evaluated by [Session.frontier], not by the checker. *)

val eventually :
  ?time:Numerics.Time_interval.t -> ?reward:Numerics.Time_interval.t -> state_formula ->
  path_formula
(** [eventually phi] is [true U phi] (the diamond of Section 2.3); both
    bounds default to unbounded. *)

val always :
  ?time:Numerics.Time_interval.t -> ?reward:Numerics.Time_interval.t ->
  comparison * float -> state_formula -> state_formula
(** [always (cmp, p) phi] encodes [P cmp p (G_I^J phi)].  CSRL has no
    negation on path formulas, so the globally operator is expressed by
    duality: [P cmp p (G phi) = P cmp' (1-p) (F !phi)] with the comparison
    mirrored by {!dual_comparison}. *)

val compare_holds : comparison -> float -> float -> bool
(** [compare_holds cmp p q] is [q cmp p] — e.g. [compare_holds Ge 0.5 q] is
    [q >= 0.5]. *)

val negate_comparison : comparison -> comparison
(** Logical complement: [q < p] fails iff [q >= p] holds, so [Lt] maps to
    [Ge], etc. *)

val dual_comparison : comparison -> comparison
(** Mirror under [q -> 1 - q]: [q <= p] iff [1-q >= 1-p], so [Le] maps to
    [Ge] (and [Lt] to [Gt]). *)

val atomic_propositions : state_formula -> string list
(** All proposition names occurring in the formula, sorted, without
    duplicates. *)

val size : state_formula -> int
(** Number of AST nodes (state and path), a proxy for checking cost. *)

val equal : state_formula -> state_formula -> bool

val pp : Format.formatter -> state_formula -> unit
val pp_path : Format.formatter -> path_formula -> unit
val pp_query : Format.formatter -> query -> unit
val pp_comparison : Format.formatter -> comparison -> unit

val to_string : state_formula -> string
(** Renders in the concrete syntax accepted by {!Parser}. *)
