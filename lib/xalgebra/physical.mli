(** Iterator-based physical execution (§1.2.3).

    {!Eval} interprets logical plans set-at-a-time; this module provides the
    thesis's physical layer: Volcano-style iterators, the
    {e StackTreeDesc}/{e StackTreeAnc} structural-join algorithms of [7],
    hash joins, and {e order descriptors} — each operator advertises the
    column its output is sorted on, and the compiler inserts Sort enforcers
    when a structural join's inputs are not ordered on their join
    attributes (the pipelining discipline §1.2.3 describes).

    [run] must agree with {!Eval.run} up to tuple order; the test suite
    checks it does. *)

type order = Rel.path option
(** The column the stream is sorted on (document order of its identifiers);
    [None] when no order is guaranteed. *)

type cursor = unit -> Rel.tuple option
(** Pull-based iterator: [None] at end of stream. *)

type t = {
  schema : Rel.schema;
  order : order;
  open_ : unit -> cursor;
}

val compile : Eval.env -> Logical.t -> t
(** Compile a logical plan to a physical one. Structural joins become
    StackTreeDesc (inner/outer/semi; output ordered by the descendant
    column) over inputs sorted on their join attributes, with Sort
    enforcers inserted as needed; top-level equality value joins become
    hash joins; other predicates fall back to nested loops. *)

val run : Eval.env -> Logical.t -> Rel.t
(** Compile and drain. *)

(** {1 Per-query resource budgets} *)

type budget_dimension = Deadline | Tuples | Steps

type budget = {
  deadline : float option;
      (** absolute time in the executing clock's timebase (seconds) *)
  max_tuples : int option;  (** cap on root-level tuples produced *)
  max_steps : int option;  (** cap on total cursor steps, all operators *)
  mutable steps : int;  (** steps consumed so far (shared across plans) *)
  mutable tuples : int;  (** root tuples produced so far *)
}

exception Over_budget of { dimension : budget_dimension; limit : float }
(** Raised by a guarded cursor the moment a budget dimension is
    exceeded — a runaway plan stops within one cursor step (or one
    16-step clock-check window for deadlines), it never hangs. *)

val budget :
  ?deadline:float -> ?max_tuples:int -> ?max_steps:int -> unit -> budget
(** A fresh budget with zero consumption. The same budget value may be
    threaded through several [run_instrumented] calls; consumption
    accumulates (the engine shares one budget across the plans of a
    query). *)

val dimension_string : budget_dimension -> string

(** {1 Per-operator instrumentation} *)

type op_stats = {
  op : string;  (** operator name, e.g. ["struct-join[inner,/]"] *)
  mutable tuples : int;  (** tuples produced *)
  mutable nexts : int;  (** next() calls received *)
  mutable elapsed : float;
      (** seconds spent inside this operator's cursor, inclusive of its
          inputs (a parent's next() pulls on its children) *)
  mutable children : op_stats list;
}
(** One stats node per operator of the logical plan, mirroring its
    shape. Counters fill in as the compiled cursor is drained. *)

val compile_instrumented :
  ?clock:(unit -> float) ->
  ?budget:budget ->
  Eval.env ->
  Logical.t ->
  t * op_stats
(** Compile with every operator's cursor wrapped in a counting node.
    [clock] (default [Sys.time]) supplies timestamps in seconds — pass
    [Unix.gettimeofday] for wall-clock resolution. The returned stats tree
    is live: its counters update as the plan executes. With [budget], every
    cursor step also charges the budget and raises {!Over_budget} when a
    dimension is exhausted ([budget.deadline] must be in [clock]'s
    timebase). *)

val run_instrumented :
  ?clock:(unit -> float) ->
  ?budget:budget ->
  ?metrics:Xobs.Metrics.registry ->
  Eval.env ->
  Logical.t ->
  Rel.t * op_stats
(** [compile_instrumented] then drain; the stats are final on return.
    With [budget], the drain additionally enforces [max_tuples] on the
    root's output. With [metrics], the finished stats tree is folded
    into the registry ([physical_tuples_total], [physical_nexts_total],
    [physical_operators_total] counters and the [physical_op_seconds]
    per-operator latency histogram); nothing is recorded when the drain
    raises. *)

val stack_tree_desc :
  axis:Logical.axis ->
  (Xdm.Nid.t * Rel.tuple) array ->
  (Xdm.Nid.t * Rel.tuple) array ->
  (Rel.tuple * Rel.tuple) list
(** The StackTreeDesc algorithm on inputs sorted by document order:
    ancestor/descendant (or parent/child) pairs, output sorted by the
    descendant. Exposed for direct testing and benchmarking. *)

val stack_tree_anc :
  axis:Logical.axis ->
  (Xdm.Nid.t * Rel.tuple) array ->
  (Xdm.Nid.t * Rel.tuple) array ->
  (Rel.tuple * Rel.tuple) list
(** StackTreeAnc: same pairs, output sorted by the ancestor. *)
