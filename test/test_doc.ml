(* Flattened documents: structural labels and navigation. *)

module Doc = Xdm.Doc
module T = Xdm.Xml_tree

let sample = "<lib><book y=\"1\"><t>A</t><a>X</a><a>Y</a></book><book><t>B</t></book></lib>"

let doc () = Doc.of_string sample

let test_shape () =
  let d = doc () in
  Alcotest.(check int) "size" 12 (Doc.size d);
  Alcotest.(check int) "elements" 7 (Doc.element_size d);
  Alcotest.(check string) "root label" "lib" (Doc.label d (Doc.root d));
  Alcotest.(check int) "root depth" 1 (Doc.depth d 0);
  Alcotest.(check int) "root parent" (-1) (Doc.parent d 0)

let test_navigation () =
  let d = doc () in
  let books = Doc.nodes_with_label d "book" in
  Alcotest.(check int) "two books" 2 (List.length books);
  let b1 = List.hd books in
  Alcotest.(check int) "book children (attr + 3 elements)" 4
    (List.length (Doc.children d b1));
  Alcotest.(check bool) "lib ancestor of book" true (Doc.is_ancestor d 0 b1);
  Alcotest.(check bool) "lib parent of book" true (Doc.is_parent d 0 b1);
  let texts = Doc.descendants_with_label d b1 "#text" in
  Alcotest.(check int) "text descendants of book1" 3 (List.length texts)

let test_values () =
  let d = doc () in
  let b1 = List.hd (Doc.nodes_with_label d "book") in
  Alcotest.(check string) "element value concatenates texts" "AXY" (Doc.value d b1);
  let attr = List.hd (Doc.nodes_with_label d "@y") in
  Alcotest.(check string) "attribute value" "1" (Doc.value d attr);
  Alcotest.(check string) "content serializes subtree"
    "<book y=\"1\"><t>A</t><a>X</a><a>Y</a></book>" (Doc.content d b1)

let test_pre_post_invariants () =
  let d = doc () in
  Doc.iter
    (fun i ->
      let p = Doc.parent d i in
      if p >= 0 then (
        Alcotest.(check bool) "parent pre smaller" true (p < i);
        Alcotest.(check bool) "parent post larger" true (Doc.post d p > Doc.post d i);
        Alcotest.(check int) "depth chain" (Doc.depth d p + 1) (Doc.depth d i));
      let last = Doc.subtree_end d i in
      Alcotest.(check bool) "descendants contiguous" true
        (List.for_all (fun j -> i < j && j < last) (Doc.descendants d i)))
    d

let test_ids () =
  let d = doc () in
  Doc.iter
    (fun i ->
      List.iter
        (fun scheme ->
          let id = Doc.id scheme d i in
          Alcotest.(check (option int))
            (Printf.sprintf "handle_of_id roundtrip %d" i)
            (Some i) (Doc.handle_of_id d id))
        [ Xdm.Nid.Simple; Xdm.Nid.Ordinal; Xdm.Nid.Structural; Xdm.Nid.Parental ])
    d

let test_to_tree () =
  let d = doc () in
  let rebuilt = Doc.to_tree d 0 in
  Alcotest.(check bool) "to_tree rebuilds the document" true
    (T.equal (T.parse sample) rebuilt)

(* Property: flattening then rebuilding is the identity. *)
let tree_gen =
  let open QCheck2.Gen in
  let label = oneofl [ "a"; "b"; "c" ] in
  fix
    (fun self depth ->
      if depth = 0 then map (fun s -> T.text s) (oneofl [ "x"; "y z" ])
      else
        frequency
          [ (1, map (fun s -> T.text s) (oneofl [ "x"; "y z" ]));
            ( 3,
              map2
                (fun tag children -> T.elt tag children)
                label
                (list_size (int_bound 3) (self (depth - 1))) ) ])
    3

let rebuild_prop =
  QCheck2.Test.make ~name:"of_tree/to_tree roundtrip" ~count:200 tree_gen (fun t ->
      let t = match t with T.Text _ -> T.elt "root" [ t ] | e -> e in
      let d = Doc.of_tree t in
      T.equal t (Doc.to_tree d 0))

let children_prop =
  QCheck2.Test.make ~name:"children partition descendants" ~count:100 tree_gen (fun t ->
      let t = match t with T.Text _ -> T.elt "root" [ t ] | e -> e in
      let d = Doc.of_tree t in
      let ok = ref true in
      Doc.iter
        (fun i ->
          let via_children =
            List.concat_map (fun c -> c :: Doc.descendants d c) (Doc.children d i)
          in
          if List.sort compare via_children <> Doc.descendants d i then ok := false)
        d;
      !ok)

(* --- mutations ---------------------------------------------------------- *)

let serialize d = T.serialize (Doc.to_tree d (Doc.root d))

(* [pack]/[unpack ~name] re-checks the flattened invariants (pre/post
   consistency, parent links, subtree extents); running a mutated
   document through it is the structural oracle for every edit. *)
let repack d =
  let d' = Doc.unpack ~name:(Doc.name d) (Doc.pack d) in
  Alcotest.(check string) "pack/unpack stable" (serialize d) (serialize d');
  d

let test_insert_subtree () =
  let d = doc () in
  let b2 = List.nth (Doc.nodes_with_label d "book") 1 in
  let d1 = repack (Doc.insert_subtree d ~parent:b2 (T.parse "<t>C</t>")) in
  Alcotest.(check string) "appended"
    "<lib><book y=\"1\"><t>A</t><a>X</a><a>Y</a></book><book><t>B</t><t>C</t></book></lib>"
    (serialize d1);
  let before = List.hd (Doc.children d (Doc.root d)) in
  let d2 = repack (Doc.insert_subtree d ~parent:(Doc.root d) ~before (T.parse "<new/>")) in
  Alcotest.(check string) "inserted before first book"
    "<lib><new/><book y=\"1\"><t>A</t><a>X</a><a>Y</a></book><book><t>B</t></book></lib>"
    (serialize d2);
  (* the source document is immutable *)
  Alcotest.(check string) "original untouched" sample (serialize d)

let test_delete_subtree () =
  let d = doc () in
  let b1 = List.hd (Doc.nodes_with_label d "book") in
  let d1 = repack (Doc.delete_subtree d b1) in
  Alcotest.(check string) "first book gone" "<lib><book><t>B</t></book></lib>"
    (serialize d1);
  Alcotest.(check int) "size shrank" (Doc.size d - 8) (Doc.size d1)

let test_update_value () =
  let d = doc () in
  let attr =
    List.find (fun h -> Doc.kind d h = Doc.Attribute) (Doc.descendants d 0)
  in
  let d1 = repack (Doc.update_value d attr "9") in
  Alcotest.(check string) "attribute rewritten"
    "<lib><book y=\"9\"><t>A</t><a>X</a><a>Y</a></book><book><t>B</t></book></lib>"
    (serialize d1);
  let txt = List.find (fun h -> Doc.kind d h = Doc.Text) (Doc.descendants d 0) in
  let d2 = repack (Doc.update_value d txt "Z") in
  Alcotest.(check string) "text rewritten"
    "<lib><book y=\"1\"><t>Z</t><a>X</a><a>Y</a></book><book><t>B</t></book></lib>"
    (serialize d2)

let test_mutation_errors () =
  let d = doc () in
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  let txt = List.find (fun h -> Doc.kind d h = Doc.Text) (Doc.descendants d 0) in
  rejects "delete root" (fun () -> Doc.delete_subtree d 0);
  rejects "insert under a text node" (fun () ->
      Doc.insert_subtree d ~parent:txt (T.parse "<x/>"));
  rejects "insert before a non-child" (fun () ->
      Doc.insert_subtree d ~parent:0 ~before:txt (T.parse "<x/>"));
  rejects "update an element" (fun () -> Doc.update_value d 0 "v");
  rejects "out-of-range handle" (fun () -> Doc.delete_subtree d 99)

(* --- the splice against a rebuild oracle ------------------------------- *)

(* The reference mutation: rebuild the parsed-tree form with one edit
   applied and re-flatten it through [of_tree], the path that built the
   document. Labels come out consistent by construction, at the price of
   a full rebuild per edit. *)
type edit =
  | Drop of int
  | Set_value of int * string
  | Graft of { parent : int; before : int option; tree : T.t }

let reference d edit =
  let attr_name j =
    let l = Doc.label d j in
    String.sub l 1 (String.length l - 1)
  in
  let rec go i =
    match Doc.kind d i with
    | Doc.Text -> (
        match edit with
        | Set_value (k, v) when k = i -> T.Text v
        | _ -> T.Text (Doc.value d i))
    | Doc.Attribute -> assert false
    | Doc.Element ->
        let cs = Doc.children d i in
        let attrs =
          List.filter_map
            (fun j ->
              if Doc.kind d j <> Doc.Attribute then None
              else
                match edit with
                | Drop k when k = j -> None
                | Set_value (k, v) when k = j -> Some (attr_name j, v)
                | _ -> Some (attr_name j, Doc.value d j))
            cs
        in
        let kids = List.filter (fun j -> Doc.kind d j <> Doc.Attribute) cs in
        let built =
          List.concat_map
            (fun j ->
              let sub = match edit with Drop k when k = j -> [] | _ -> [ go j ] in
              match edit with
              | Graft { parent; before = Some b; tree } when parent = i && b = j ->
                  tree :: sub
              | _ -> sub)
            kids
        in
        let built =
          match edit with
          | Graft { parent; before = None; tree } when parent = i -> built @ [ tree ]
          | _ -> built
        in
        T.Element { tag = Doc.label d i; attrs; children = built }
  in
  Doc.of_tree ~name:(Doc.name d) (go 0)

let splice d = function
  | Drop i -> Doc.delete_subtree d i
  | Set_value (i, v) -> Doc.update_value d i v
  | Graft { parent; before; tree } -> Doc.insert_subtree d ~parent ?before tree

(* Fragments to graft: elements with attributes, text (empty too) and
   nested elements, or a bare text node. *)
let fragment_gen =
  let open QCheck2.Gen in
  let text = map T.text (oneofl [ "x"; "y z"; ""; "<&>" ]) in
  let attrs =
    map
      (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b))
      (list_size (int_bound 2) (pair (oneofl [ "k"; "id"; "year" ]) (oneofl [ "1"; "v w" ])))
  in
  fix
    (fun self depth ->
      if depth = 0 then text
      else
        frequency
          [ (1, text);
            ( 3,
              map3
                (fun tag attrs children -> T.elt ~attrs tag children)
                (oneofl [ "a"; "book"; "title" ])
                attrs
                (list_size (int_bound 3) (self (depth - 1))) ) ])
    2

let start_gen =
  let open QCheck2.Gen in
  oneof
    [ map3
        (fun seed books theses ->
          Xworkload.Gen_bib.generate_doc ~seed ~books ~theses ())
        (int_bound 1000) (int_range 1 6) (int_bound 3);
      map (fun t -> Doc.of_tree (T.elt ~attrs:[ ("r", "0") ] "root" [ t ])) fragment_gen ]

(* An op is resolved against the current document: [roll] picks the
   kind, [a] and [b] pick handles. Deletes draw from every non-root
   node, so attributes, text and inner elements all go. *)
let edit_of d (roll, a, b, tree) =
  let all = List.init (Doc.size d) Fun.id in
  let pick l = List.nth l (a mod List.length l) in
  let elements = List.filter (fun i -> Doc.kind d i = Doc.Element) all in
  let leaves = List.filter (fun i -> Doc.kind d i <> Doc.Element) all in
  match roll with
  | 0 ->
      let parent = pick elements in
      let slots =
        List.filter (fun c -> Doc.kind d c <> Doc.Attribute) (Doc.children d parent)
      in
      let before =
        if slots = [] || b mod 3 = 0 then None
        else Some (List.nth slots (b mod List.length slots))
      in
      Graft { parent; before; tree }
  | 1 when Doc.size d > 1 -> Drop (1 + (a mod (Doc.size d - 1)))
  | _ when leaves <> [] -> Set_value (pick leaves, Printf.sprintf "v%d" b)
  | _ -> Graft { parent = Doc.root d; before = None; tree }

let splice_prop =
  QCheck2.Test.make ~name:"splice = rebuild oracle, op by op" ~count:150
    QCheck2.Gen.(
      pair start_gen
        (list_size (int_range 1 50)
           (quad (int_bound 2) nat nat fragment_gen)))
    (fun (d0, ops) ->
      let step (d, r) op =
        (* build the label index first: update_value carries it over *)
        ignore (Doc.nodes_with_label d "#text");
        let edit = edit_of d op in
        let d' = splice d edit and r' = reference r edit in
        if Doc.pack d' <> Doc.pack r' then
          QCheck2.Test.fail_reportf "packed arrays differ after %s"
            (match edit with
            | Drop i -> Printf.sprintf "delete %d" i
            | Set_value (i, _) -> Printf.sprintf "update %d" i
            | Graft { parent; before; _ } ->
                Printf.sprintf "insert under %d before %s" parent
                  (Option.fold ~none:"-" ~some:string_of_int before));
        ignore (Doc.unpack ~name:(Doc.name d') (Doc.pack d'));
        List.iter
          (fun l ->
            if Doc.nodes_with_label d' l <> Doc.nodes_with_label r' l then
              QCheck2.Test.fail_reportf "label index for %s differs" l)
          (Doc.labels r');
        (d', r')
      in
      ignore (List.fold_left step (d0, d0) ops);
      true)

let () =
  Alcotest.run "doc"
    [ ( "doc",
        [ Alcotest.test_case "shape" `Quick test_shape;
          Alcotest.test_case "navigation" `Quick test_navigation;
          Alcotest.test_case "values and content" `Quick test_values;
          Alcotest.test_case "pre/post invariants" `Quick test_pre_post_invariants;
          Alcotest.test_case "id roundtrips" `Quick test_ids;
          Alcotest.test_case "to_tree" `Quick test_to_tree ] );
      ( "mutations",
        [ Alcotest.test_case "insert_subtree" `Quick test_insert_subtree;
          Alcotest.test_case "delete_subtree" `Quick test_delete_subtree;
          Alcotest.test_case "update_value" `Quick test_update_value;
          Alcotest.test_case "invalid mutations are rejected" `Quick
            test_mutation_errors ] );
      ( "props",
        [ QCheck_alcotest.to_alcotest rebuild_prop;
          QCheck_alcotest.to_alcotest children_prop;
          QCheck_alcotest.to_alcotest splice_prop ] ) ]
