(** Flattened XML documents.

    A document is the tree of §1.1 laid out in pre-order in a single array:
    one entry per element, attribute and text node, carrying the
    (pre, post, depth) labels of the traversal-based structural identifier
    scheme of §1.2.1. All structural predicates (parent, ancestor,
    precedes/follows) are decided by integer comparisons on those labels.

    Node handles are the pre-order ranks (array indices); [0] is the root
    element. *)

type kind = Element | Attribute | Text

type t

val of_tree : ?name:string -> Xml_tree.t -> t
(** Flatten a parsed tree. [name] is the document name (default ["doc"]).
    Attribute nodes are visited directly after their owning element, before
    its children; whitespace-only text was already dropped by the parser. *)

val of_string : ?name:string -> string -> t
(** [of_tree ∘ Xml_tree.parse]. *)

val name : t -> string
val size : t -> int
(** Total number of nodes. *)

val element_size : t -> int
val root : t -> int

(** {1 Per-node accessors} *)

val kind : t -> int -> kind
val label : t -> int -> string
(** Element tag, [@name] for attributes, [#text] for text nodes. *)

val pre : t -> int -> int
val post : t -> int -> int
val depth : t -> int -> int
val parent : t -> int -> int
(** [-1] on the root. *)

val ordinal : t -> int -> int
(** 1-based position among the parent's children (all kinds); 1 on the
    root. *)

val value : t -> int -> string
(** The node's value as defined in §1.1: text content for text nodes,
    the attribute value for attributes, and the concatenation of all text
    descendants (XPath [text()]) for elements. *)

val content : t -> int -> string
(** The node's content: serialization of the subtree rooted at the node
    (§1.1). *)

val subtree_end : t -> int -> int
(** [subtree_end d i] is one past the last descendant of [i]; the
    descendants of [i] are exactly the handles [i+1 .. subtree_end d i - 1]. *)

val to_tree : t -> int -> Xml_tree.t
(** Rebuild the parsed-tree form of the subtree rooted at a node. *)

(** {1 Structural predicates} *)

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor d a b]: is [a] a proper ancestor of [b]? *)

val is_parent : t -> int -> int -> bool

(** {1 Navigation} *)

val children : t -> int -> int list
val descendants : t -> int -> int list
val descendants_with_label : t -> int -> string -> int list
val nodes_with_label : t -> string -> int list
(** All handles carrying the given label, in document order (an index over
    the label column, built once on demand). *)

val labels : t -> string list
(** Distinct labels, in first-occurrence order. *)

val iter : (int -> unit) -> t -> unit

(** {1 Mutations}

    Functional updates: each returns a fresh document with one edit
    applied; the input is untouched. The node array is spliced in one
    O(n) pass: only an inserted tree is flattened, and the nodes after
    the edit point shift their labels by the subtree's size. Node
    handles are pre-order ranks and are therefore
    {b not stable} across structural edits — re-resolve any held handles
    against the returned document. All three raise [Invalid_argument] on
    handles that are out of range or of the wrong kind. *)

val insert_subtree : t -> parent:int -> ?before:int -> Xml_tree.t -> t
(** Graft a parsed subtree under element [parent]: before child [before]
    when given (which must be a non-attribute child of [parent]),
    appended after the last child otherwise. *)

val delete_subtree : t -> int -> t
(** Remove the node and its whole subtree. The root cannot be deleted. *)

val update_value : t -> int -> string -> t
(** Replace the value of a text or attribute node (elements have no
    stored value of their own). *)

(** {1 Identifiers} *)

val id : Nid.scheme -> t -> int -> Nid.t
(** The node's persistent identifier under the chosen labeling scheme. *)

val handle_of_id : t -> Nid.t -> int option
(** Inverse of {!id}; [None] if the identifier does not denote a node of
    this document. *)

(** {1 Raw node access}

    The flattened node array, exposed for binary persistence
    ([lib/xpersist]): a snapshot stores the array verbatim so node
    handles (pre-order ranks) and every (pre, post, depth) label survive
    a save/reopen byte-identically — no re-parse, no re-flattening. *)

type packed_node = {
  p_post : int;
  p_depth : int;
  p_parent : int;  (** [-1] on the root *)
  p_ordinal : int;
  p_kind : kind;
  p_label : string;
  p_value : string;
  p_subtree_end : int;
}

val pack : t -> packed_node array
(** The node array in handle order; entry [i] describes handle [i]. *)

val unpack : name:string -> packed_node array -> t
(** Rebuild a document from {!pack} output. Checks the structural
    invariants the accessors rely on (parents precede children, subtree
    ends are nested and within bounds, depths are consistent) and raises
    [Invalid_argument] when they do not hold — corrupted input never
    produces a document that crashes later. *)
