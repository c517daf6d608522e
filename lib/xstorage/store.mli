(** Storage modules and catalogs.

    A storage module is a persistent structure described by a XAM
    (§2.2) together with its materialized extent. A catalog is the set of
    XAMs describing everything the store holds — the optimizer's only
    knowledge of the storage, which is what buys physical data independence
    (§2.1.4): swapping storage models changes the catalog, never the
    optimizer.

    {b Path-partitioned extents.} Each extent is additionally split into
    per-summary-path partitions: tuples are classified by the summary
    path (φ) of the document node one designated ID column identifies.
    The partition directory (the list of path ids) is the physical unit
    of scan pruning and snapshot paging. Partitions
    remember original extent positions, so any subset reassembles in
    exact extent order — partitioned access is byte-identical to the
    monolithic extent. *)

type partition = {
  p_path : int;  (** summary path id; [-1] = unclassifiable tuples *)
  p_pos : int array;  (** original extent positions, ascending *)
  p_rel : Xalgebra.Rel.t;
  p_lo : Xdm.Nid.t option;
      (** document-order bounds of the partitioning column over the
          partition's tuples; [None] when any tuple's column is not an
          identifier (the partition can then never be range-excluded) *)
  p_hi : Xdm.Nid.t option;
}

type parts = {
  pt_nid : int;  (** pattern node whose ID column keys the directory *)
  pt_col : int;  (** its column index in the extent schema *)
  pt_parts : partition list;  (** ascending [p_path]; [-1] bucket first *)
}

type module_ = {
  name : string;
  xam : Xam.Pattern.t;
  extent : Xalgebra.Rel.t;
  parts : parts option;  (** [None]: monolithic, no partition directory *)
}

type catalog = {
  summary : Xsummary.Summary.t;
  modules : module_ list;
}

exception Module_fault of { name : string; reason : string }
(** A storage module failed while being read. The store itself never
    raises this; it is the contract between fault-injecting or remote
    storage wrappers ({!Faultstore}) and the engine's recovery machinery
    (quarantine + re-plan in {!Xengine.Engine}). *)

exception Invalid_module of { name : string; reason : string }
(** Raised by {!catalog_of} / {!validated} for a module whose pattern
    references paths absent from the catalog's summary. *)

val materialize : Xdm.Doc.t -> string -> Xam.Pattern.t -> module_
(** Evaluate the XAM (required markers ignored for materialization) and
    keep the result as the module's extent. No partition directory is
    built ([parts = None]) — partitioning needs φ; see {!partitioned}
    and {!catalog_of}. *)

val partition_column : Xam.Pattern.t -> Xalgebra.Rel.schema -> (int * int) option
(** [(nid, column index)] of the partitioning column: the first return
    node (in schema order) whose stored ID resolves to an atomic column
    of the given schema. [None] when the pattern stores no identifier —
    such an extent stays monolithic. *)

val partition_extent :
  phi:int array -> Xdm.Doc.t -> Xam.Pattern.t -> Xalgebra.Rel.t -> parts option
(** Split an extent into per-summary-path partitions; [phi] is the
    document-node → path-id map from {!Xsummary.Summary.build}. Tuples
    whose partitioning column holds no resolvable identifier land in the
    [-1] bucket, which pruning never drops. *)

val partitioned : phi:int array -> Xdm.Doc.t -> module_ -> module_
(** Attach a partition directory to a module that has none. *)

val mk_partition :
  col:int -> path:int -> pos:int array -> Xalgebra.Rel.t -> partition
(** Build a partition, computing the [p_lo]/[p_hi] identifier bounds of
    column [col] over the relation's tuples. Used by snapshot decoding,
    which persists positions but not bounds. *)

val merge_partitions : Xalgebra.Rel.schema -> partition list -> Xalgebra.Rel.t
(** Reassemble partitions in original extent order. *)

val rel_equal : Xalgebra.Rel.t -> Xalgebra.Rel.t -> bool
(** Same schema, same tuples, same order. *)

val spliced : prev:module_ -> module_ -> module_ * (int * int)
(** Partition-level splice for incremental maintenance under updates:
    [spliced ~prev fresh] returns [fresh] with every partition whose
    tuple payload is unchanged from [prev]'s partition on the same
    summary path sharing the old physical record (directory metadata —
    positions, bounds — stays fresh, since global extent positions shift
    even for untouched partitions), plus [(kept, rebuilt)] partition
    counts. A monolithic module counts [(1, 0)] when its extent is
    unchanged and [(0, 1)] otherwise. *)

val partition_paths : parts -> int list
(** The partition directory: each partition's summary path id. *)

val kept_partition : int -> int list -> bool
(** [kept_partition path allowed]: whether a partition keyed by [path]
    survives pruning to the [allowed] summary paths (the [-1] bucket
    always does). *)

val prune_counts : parts -> allowed:int list -> int * int
(** [(scanned, pruned)] partition counts under the given allowed paths. *)

val pruned_extent : module_ -> allowed:int list -> Xalgebra.Rel.t
(** The extent restricted to partitions the allowed summary paths can
    touch, in extent order. The full extent when the module is
    monolithic or nothing prunes. *)

val plan_pruning :
  views_used:string list ->
  parts_of:(string -> (int * int list) option) ->
  scan_paths:(string * (int * int list) list) list ->
  (string * int list) list * int * int
(** Decide which partitions a plan's scans need. [parts_of] maps a module
    name to its [(pt_nid, partition directory)]; [scan_paths] is the
    rewriter's per-view, per-view-nid allowed summary paths. Returns
    [(overrides, scanned, pruned)]: per-module allowed path lists (only
    where pruning drops something) plus total partitions scanned and
    pruned across the plan — the counts EXPLAIN surfaces. A module
    without a directory, or without a [scan_paths] entry for its
    partitioning nid, scans everything. *)

val validate : catalog -> (unit, (string * string) list) result
(** Check every module's pattern against the summary: [Error pairs] with
    one [(name, reason)] per failing module — a pattern referencing paths
    the summary does not contain is a mismatch that would otherwise only
    surface mid-query. All failures are accumulated so a broken catalog
    (a migration, a foreign snapshot) is diagnosed in one round instead
    of one module per round. *)

val validated : catalog -> catalog
(** {!validate}, raising {!Invalid_module} for the first failing module. *)

val catalog_of : Xdm.Doc.t -> (string * Xam.Pattern.t) list -> catalog
(** Materialize the specs against the document, partition every extent
    by the document's summary paths, and validate the result against the
    document's own summary ({!Invalid_module} on a spec whose pattern
    cannot bind). *)

val env : catalog -> Xalgebra.Eval.env
(** Resolve module names to extents, for plan execution. *)

val views : catalog -> Xam.Rewrite.view list
(** The catalog as rewriting views. Modules with required attributes
    (indexes) are excluded: they need bindings and are handled by
    {!lookup}. *)

val index_views : catalog -> Xam.Rewrite.view list
(** The index modules only. *)

val lookup : module_ -> bindings:Xalgebra.Rel.tuple list -> Xalgebra.Rel.t
(** Restricted access (Def 2.2.6): the data reachable from the given
    binding tuples over the module's {!Xam.Binding.binding_schema}. *)

val lookup_seq :
  module_ -> bindings:Xalgebra.Rel.tuple list -> Xalgebra.Rel.tuple Seq.t
(** {!lookup} as a cursor: matching tuples stream out (deduplicated on
    the fly) as the extent is walked, so an early-exiting consumer never
    pays for the rest of the extent. The schema is the module extent's.
    Bindings that pin the partitioning column to one identifier walk only
    the partitions whose document-order ID range can contain it. *)

val total_tuples : catalog -> int
val pp : Format.formatter -> catalog -> unit

(** {1 Lazy-extent catalogs}

    The shape a snapshot opened through a paging reader presents: the
    summary and every xam are resident (planning needs them), extents are
    thunks that page in on demand. The engine only ever touches extents
    through its {!Xalgebra.Eval.env} closure, so {!lazy_env} is enough to
    run queries against cold storage. Thunks may raise {!Module_fault}
    when the backing bytes turn out corrupt — the engine's quarantine
    machinery absorbs that exactly as it does for any faulty module.

    A partitioned lazy module additionally exposes its partition
    directory and a per-partition load thunk, making the partition — not
    the extent — the unit the backing buffer cache pages in. *)

type lazy_parts = {
  lpt_nid : int;
  lpt_col : int;
  lpt_paths : int list;  (** partition directory, in stored order *)
  lpt_load : int -> partition;  (** page the i-th partition in *)
}

type lazy_module = {
  lm_name : string;
  lm_xam : Xam.Pattern.t;
  lm_extent : unit -> Xalgebra.Rel.t;
  lm_parts : lazy_parts option;
}

type lazy_catalog = {
  lc_summary : Xsummary.Summary.t;
  lc_modules : lazy_module list;
}

val lazy_of_catalog : catalog -> lazy_catalog
(** Wrap resident extents (and partitions) in constant thunks. *)

val materialize_lazy : lazy_catalog -> catalog
(** Force every extent (one full sweep over the backing store);
    partitioned modules are rebuilt from their loaded partitions. *)

val pruned_extent_lazy : lazy_module -> allowed:int list -> Xalgebra.Rel.t
(** {!pruned_extent} for a lazy module: only the surviving partitions
    are paged in. Falls back to [lm_extent] when the module is
    monolithic or nothing prunes. *)

val skeleton : lazy_catalog -> catalog
(** The catalog with every extent replaced by an empty relation over the
    pattern's binding schema — enough for {!validate}, {!views} and
    {!index_views}, without forcing a single extent. *)

val validate_lazy : lazy_catalog -> (unit, (string * string) list) result
(** {!validate} on the {!skeleton}: structural validation never pages. *)

val lazy_env : lazy_catalog -> Xalgebra.Eval.env
(** Resolve module names by forcing the matching thunk. No memoization —
    the backing reader owns the cache. *)
