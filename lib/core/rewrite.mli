(** Rewriting query patterns using materialized XAM views (Ch. 5).

    The engine follows the generate-and-test approach of §5.3–§5.5:

    + {e Match}: each view is matched against the query — a partial,
      injective, ancestorship-preserving map from the view's attribute-
      storing nodes to query nodes with overlapping path annotations.
    + {e Assemble}: sets of at most [max_views] matches that together
      provide every attribute the query returns are combined into a logical
      plan — equality joins on shared nodes' IDs, structural joins on
      ancestor-related nodes with structural IDs, parent-ID derivation on
      navigational (Dewey) IDs, cartesian products across structurally
      unrelated query roots — plus compensations: selections enforcing
      query value formulas over stored [V] columns, and navigation inside
      stored [C] columns ({!Xalgebra.Logical.Extract}) re-extracting
      descendants the views do not store.
    + {e Test}: each candidate plan is converted into its S-equivalent
      union of patterns (§5.5.2: one merged summary-subtree per consistent
      combination of view embeddings) and kept only if that union is
      S-equivalent to the query — [q ⊆_S ∪ members] and every member
      [⊆_S q], using the enhanced summary's integrity constraints.

    Rewritings are {e total} (§5.1): plans read only the given views, so a
    base store described by XAMs participates like any other view. Views
    with [R]-marked (required) attributes — indexes — participate too, but
    only for queries that pin every key: a required [Val] needs an equality
    formula on the matched query node, a required [Tag] a concrete label;
    the pinned keys become selections over the index extent. *)

module Summary = Xsummary.Summary
module Logical = Xalgebra.Logical

type view = { vname : string; vpattern : Pattern.t }

type rewriting = {
  plan : Logical.t;
  members : (Pattern.t * int array) list;
      (** the plan's S-equivalent pattern union, with return-node
          permutations relative to the query *)
  views_used : string list;
  scan_paths : (string * (int * int list) list) list;
      (** per scanned view, per view-pattern nid: the summary paths that
          node's bindings can take in any tuple combination contributing
          to the answer — what path-partitioned storage may prune a scan
          to. Only fully conjunctive views appear (their extents are
          exactly covered by the canonical embedding enumeration); an
          absent view name or nid means the scan is unconstrained. *)
}

val rewrite :
  ?constraints:bool ->
  ?max_views:int ->
  ?max_matches:int ->
  ?metrics:Xobs.Metrics.registry ->
  Summary.t ->
  query:Pattern.t ->
  views:view list ->
  rewriting list
(** All rewritings found, duplicate-plan-free. [constraints] (default
    [true]) enables the strong-edge chase; [max_views] (default 3) bounds
    the number of views in one plan; [max_matches] (default 64) caps the
    matches considered per view. [metrics] records [rewrite_calls_total], [rewrite_candidates_total]
    and [rewrite_rewritings_total] into the given registry (union
    specializations count as further calls). *)

val best : rewriting list -> rewriting option
(** Minimal plan (fewest operators), as in §5.3. *)

val matches_of_view :
  Summary.t -> query:Pattern.t -> view -> (int * int) list list
(** The view-to-query node maps considered for one view (view nid → query
    nid). Exposed for tests and diagnostics. *)
