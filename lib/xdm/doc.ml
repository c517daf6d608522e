type kind = Element | Attribute | Text

type node = {
  post : int;
  depth : int;
  parent : int;
  ordinal : int;
  kind : kind;
  label : string;
  value : string;
  subtree_end : int;
}

type t = {
  name : string;
  nodes : node array;
  mutable label_index : (string, int list) Hashtbl.t option;
}

let name d = d.name
let size d = Array.length d.nodes
let root _ = 0

let of_tree ?(name = "doc") tree =
  let buf = ref [] in
  let count = ref 0 in
  let post_counter = ref 0 in
  (* Nodes are emitted in pre-order; post and subtree_end are patched in as
     the traversal unwinds. *)
  let emit ~depth ~parent ~ordinal ~kind ~label ~value =
    let i = !count in
    incr count;
    buf := (i, depth, parent, ordinal, kind, label, value) :: !buf;
    i
  in
  let posts = Hashtbl.create 256 in
  let ends = Hashtbl.create 256 in
  let close i =
    incr post_counter;
    Hashtbl.replace posts i !post_counter;
    Hashtbl.replace ends i !count
  in
  let rec go tree ~depth ~parent ~ordinal =
    match tree with
    | Xml_tree.Text s ->
        let i = emit ~depth ~parent ~ordinal ~kind:Text ~label:"#text" ~value:s in
        close i
    | Xml_tree.Element { tag; attrs; children } ->
        let i = emit ~depth ~parent ~ordinal ~kind:Element ~label:tag ~value:"" in
        let ord = ref 0 in
        List.iter
          (fun (aname, avalue) ->
            incr ord;
            let j =
              emit ~depth:(depth + 1) ~parent:i ~ordinal:!ord ~kind:Attribute
                ~label:("@" ^ aname) ~value:avalue
            in
            close j)
          attrs;
        List.iter
          (fun child ->
            incr ord;
            go child ~depth:(depth + 1) ~parent:i ~ordinal:!ord)
          children;
        close i
  in
  go tree ~depth:1 ~parent:(-1) ~ordinal:1;
  let n = !count in
  let dummy =
    { post = 0; depth = 0; parent = -1; ordinal = 0; kind = Text; label = "";
      value = ""; subtree_end = 0 }
  in
  let nodes = Array.make n dummy in
  List.iter
    (fun (i, depth, parent, ordinal, kind, label, value) ->
      nodes.(i) <-
        { post = Hashtbl.find posts i; depth; parent; ordinal; kind; label;
          value; subtree_end = Hashtbl.find ends i })
    !buf;
  { name; nodes; label_index = None }

let of_string ?name s = of_tree ?name (Xml_tree.parse s)

let element_size d =
  Array.fold_left (fun acc n -> if n.kind = Element then acc + 1 else acc) 0 d.nodes

let kind d i = d.nodes.(i).kind
let label d i = d.nodes.(i).label
let pre _ i = i
let post d i = d.nodes.(i).post
let depth d i = d.nodes.(i).depth
let parent d i = d.nodes.(i).parent
let ordinal d i = d.nodes.(i).ordinal
let subtree_end d i = d.nodes.(i).subtree_end

let is_ancestor d a b = a < b && b < d.nodes.(a).subtree_end
let is_parent d a b = is_ancestor d a b && d.nodes.(b).parent = a

let children d i =
  let stop = d.nodes.(i).subtree_end in
  let rec go j acc =
    if j >= stop then List.rev acc else go d.nodes.(j).subtree_end (j :: acc)
  in
  go (i + 1) []

let descendants d i =
  let stop = d.nodes.(i).subtree_end in
  List.init (stop - i - 1) (fun k -> i + 1 + k)

let descendants_with_label d i lbl =
  let stop = d.nodes.(i).subtree_end in
  let rec go j acc =
    if j >= stop then List.rev acc
    else go (j + 1) (if String.equal d.nodes.(j).label lbl then j :: acc else acc)
  in
  go (i + 1) []

let build_label_index d =
  match d.label_index with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create 64 in
      for i = Array.length d.nodes - 1 downto 0 do
        let lbl = d.nodes.(i).label in
        let prev = try Hashtbl.find idx lbl with Not_found -> [] in
        Hashtbl.replace idx lbl (i :: prev)
      done;
      d.label_index <- Some idx;
      idx

let nodes_with_label d lbl =
  match Hashtbl.find_opt (build_label_index d) lbl with
  | Some l -> l
  | None -> []

let labels d =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  Array.iter
    (fun n ->
      if not (Hashtbl.mem seen n.label) then (
        Hashtbl.add seen n.label ();
        acc := n.label :: !acc))
    d.nodes;
  List.rev !acc

let iter f d = Array.iteri (fun i _ -> f i) d.nodes

let value d i =
  let n = d.nodes.(i) in
  match n.kind with
  | Text | Attribute -> n.value
  | Element ->
      let buf = Buffer.create 32 in
      for j = i + 1 to n.subtree_end - 1 do
        if d.nodes.(j).kind = Text then Buffer.add_string buf d.nodes.(j).value
      done;
      Buffer.contents buf

let rec to_tree d i =
  let n = d.nodes.(i) in
  match n.kind with
  | Text -> Xml_tree.Text n.value
  | Attribute ->
      (* An attribute serialized standalone becomes an element carrying its
         value, mirroring the R^a tag-derived collections of §2.2.2. *)
      Xml_tree.Element
        { tag = String.sub n.label 1 (String.length n.label - 1); attrs = [];
          children = [ Xml_tree.Text n.value ] }
  | Element ->
      let attrs, children =
        List.fold_left
          (fun (attrs, children) j ->
            let c = d.nodes.(j) in
            if c.kind = Attribute then
              ((String.sub c.label 1 (String.length c.label - 1), c.value) :: attrs,
               children)
            else (attrs, to_tree d j :: children))
          ([], []) (children d i)
      in
      Xml_tree.Element
        { tag = n.label; attrs = List.rev attrs; children = List.rev children }

let content d i =
  let n = d.nodes.(i) in
  match n.kind with
  | Text -> n.value
  | Attribute ->
      Printf.sprintf "%s=\"%s\""
        (String.sub n.label 1 (String.length n.label - 1))
        n.value
  | Element -> Xml_tree.serialize (to_tree d i)

let id scheme d i =
  match scheme with
  | Nid.Simple -> Nid.Simple_id i
  | Nid.Ordinal -> Nid.Ordinal_id i
  | Nid.Structural ->
      Nid.Pre_post { pre = i; post = d.nodes.(i).post; depth = d.nodes.(i).depth }
  | Nid.Parental ->
      let rec path i acc =
        if i < 0 then acc else path d.nodes.(i).parent (d.nodes.(i).ordinal :: acc)
      in
      Nid.Dewey (path i [])

type packed_node = {
  p_post : int;
  p_depth : int;
  p_parent : int;
  p_ordinal : int;
  p_kind : kind;
  p_label : string;
  p_value : string;
  p_subtree_end : int;
}

let pack d =
  Array.map
    (fun n ->
      { p_post = n.post; p_depth = n.depth; p_parent = n.parent;
        p_ordinal = n.ordinal; p_kind = n.kind; p_label = n.label;
        p_value = n.value; p_subtree_end = n.subtree_end })
    d.nodes

let unpack ~name packed =
  let n = Array.length packed in
  let fail msg = invalid_arg (Printf.sprintf "Doc.unpack: %s" msg) in
  if n = 0 then fail "empty node array";
  Array.iteri
    (fun i p ->
      if i = 0 then begin
        if p.p_parent <> -1 then fail "root has a parent";
        if p.p_depth <> 1 then fail "root depth is not 1"
      end
      else begin
        if p.p_parent < 0 || p.p_parent >= i then
          fail (Printf.sprintf "node %d: parent %d not before it" i p.p_parent);
        if p.p_depth <> packed.(p.p_parent).p_depth + 1 then
          fail (Printf.sprintf "node %d: depth inconsistent with parent" i);
        (* Children lie inside the parent's subtree. *)
        if i >= packed.(p.p_parent).p_subtree_end then
          fail (Printf.sprintf "node %d: outside its parent's subtree" i)
      end;
      if p.p_subtree_end <= i || p.p_subtree_end > n then
        fail (Printf.sprintf "node %d: subtree end %d out of range" i p.p_subtree_end);
      if p.p_post < 1 || p.p_post > n then
        fail (Printf.sprintf "node %d: post %d out of range" i p.p_post);
      if p.p_kind = Attribute && not (String.length p.p_label > 1 && p.p_label.[0] = '@')
      then fail (Printf.sprintf "node %d: attribute label %S lacks '@'" i p.p_label))
    packed;
  if packed.(0).p_subtree_end <> n then fail "root subtree does not span the array";
  { name;
    nodes =
      Array.map
        (fun p ->
          { post = p.p_post; depth = p.p_depth; parent = p.p_parent;
            ordinal = p.p_ordinal; kind = p.p_kind; label = p.p_label;
            value = p.p_value; subtree_end = p.p_subtree_end })
        packed;
    label_index = None }

(* --- Mutations ---------------------------------------------------------
   Functional updates that splice the node array in one pass. A subtree is
   a contiguous pre-order range, so an edit at rank [at] that grafts or
   drops [s] nodes moves every later node by [s]: its rank (the array
   index), post, parent (when the parent is later too) and subtree_end.
   The edit point's ancestors widen or narrow by [s] (post and
   subtree_end), its later siblings' ordinals move by one, and every
   other node is shared as is. Handles are pre-order ranks, so any
   structural edit shifts the handles of every node at or after the edit
   point; callers must re-resolve handles against the returned document. *)

let check_handle d i ctx =
  if i < 0 || i >= Array.length d.nodes then
    invalid_arg
      (Printf.sprintf "Doc.%s: handle %d out of range (document has %d nodes)"
         ctx i (Array.length d.nodes))

(* Widen (or narrow, for negative [s]) [a] and each of its ancestors. *)
let rec resize_ancestors nodes a s =
  if a >= 0 then begin
    let n = nodes.(a) in
    nodes.(a) <- { n with post = n.post + s; subtree_end = n.subtree_end + s };
    resize_ancestors nodes n.parent s
  end

let insert_subtree d ~parent ?before tree =
  check_handle d parent "insert_subtree";
  let p = d.nodes.(parent) in
  if p.kind <> Element then
    invalid_arg "Doc.insert_subtree: parent is not an element";
  let at, ordinal =
    match before with
    | None -> (p.subtree_end, List.length (children d parent) + 1)
    | Some b ->
        check_handle d b "insert_subtree";
        let nb = d.nodes.(b) in
        if nb.parent <> parent then
          invalid_arg "Doc.insert_subtree: ~before is not a child of ~parent";
        if nb.kind = Attribute then
          invalid_arg "Doc.insert_subtree: cannot insert before an attribute";
        (b, nb.ordinal)
  in
  let graft = (of_tree tree).nodes in
  let s = Array.length graft in
  (* The nodes that close before the graft's root are those before [at]
     other than its [p.depth] ancestors. *)
  let post0 = at - p.depth in
  let nodes =
    Array.init
      (Array.length d.nodes + s)
      (fun j ->
        if j < at then d.nodes.(j)
        else if j < at + s then
          let g = graft.(j - at) in
          if j = at then
            { g with post = g.post + post0; depth = g.depth + p.depth; parent;
              ordinal; subtree_end = g.subtree_end + at }
          else
            { g with post = g.post + post0; depth = g.depth + p.depth;
              parent = g.parent + at; subtree_end = g.subtree_end + at }
        else
          let n = d.nodes.(j - s) in
          { n with
            post = n.post + s;
            parent = (if n.parent >= at then n.parent + s else n.parent);
            ordinal = (if n.parent = parent then n.ordinal + 1 else n.ordinal);
            subtree_end = n.subtree_end + s })
  in
  resize_ancestors nodes parent s;
  { name = d.name; nodes; label_index = None }

let delete_subtree d i =
  check_handle d i "delete_subtree";
  if i = 0 then invalid_arg "Doc.delete_subtree: cannot delete the root";
  let stop = d.nodes.(i).subtree_end and parent = d.nodes.(i).parent in
  let s = stop - i in
  let nodes =
    Array.init
      (Array.length d.nodes - s)
      (fun j ->
        if j < i then d.nodes.(j)
        else
          let n = d.nodes.(j + s) in
          { n with
            post = n.post - s;
            parent = (if n.parent >= stop then n.parent - s else n.parent);
            ordinal = (if n.parent = parent then n.ordinal - 1 else n.ordinal);
            subtree_end = n.subtree_end - s })
  in
  resize_ancestors nodes parent (-s);
  { name = d.name; nodes; label_index = None }

(* Labels do not change, so the label index (if built) stays valid. *)
let update_value d i v =
  check_handle d i "update_value";
  if d.nodes.(i).kind = Element then
    invalid_arg "Doc.update_value: values live on text and attribute nodes";
  let nodes = Array.copy d.nodes in
  nodes.(i) <- { nodes.(i) with value = v };
  { name = d.name; nodes; label_index = d.label_index }

let handle_of_id d nid =
  let check i = if i >= 0 && i < Array.length d.nodes then Some i else None in
  match nid with
  | Nid.Simple_id i | Nid.Ordinal_id i -> check i
  | Nid.Pre_post { pre; post; _ } -> (
      match check pre with
      | Some i when d.nodes.(i).post = post -> Some i
      | _ -> None)
  | Nid.Dewey path ->
      let rec follow i = function
        | [] -> Some i
        | ord :: rest -> (
            match
              List.find_opt (fun j -> d.nodes.(j).ordinal = ord) (children d i)
            with
            | Some j -> follow j rest
            | None -> None)
      in
      (match path with 1 :: rest -> follow 0 rest | _ -> None)
