module Summary = Xsummary.Summary
module Logical = Xalgebra.Logical
module Rel = Xalgebra.Rel
module Pred = Xalgebra.Pred
module Nid = Xdm.Nid

type view = { vname : string; vpattern : Pattern.t }

type rewriting = {
  plan : Logical.t;
  members : (Pattern.t * int array) list;
  views_used : string list;
  scan_paths : (string * (int * int list) list) list;
}

(* --- Query-side indexing -------------------------------------------------- *)

type query_info = {
  q : Pattern.t;
  q_parent : (int, int) Hashtbl.t;  (* query nid -> parent nid *)
  q_edge : (int, Pattern.edge) Hashtbl.t;
  q_label : (int, string) Hashtbl.t;
  q_formula : (int, Formula.t) Hashtbl.t;
  q_ret_index : (int, int) Hashtbl.t;  (* return nid -> position *)
  q_ann : (int, int list) Hashtbl.t;  (* nid -> summary paths *)
}

let index_query s q =
  let q_parent = Hashtbl.create 16 in
  let q_edge = Hashtbl.create 16 in
  let q_label = Hashtbl.create 16 in
  let q_formula = Hashtbl.create 16 in
  let rec walk parent (t : Pattern.tree) =
    let nid = t.node.Pattern.nid in
    (match parent with Some p -> Hashtbl.replace q_parent nid p | None -> ());
    Hashtbl.replace q_edge nid t.edge;
    Hashtbl.replace q_label nid t.node.Pattern.label;
    Hashtbl.replace q_formula nid t.node.Pattern.formula;
    List.iter (walk (Some nid)) t.children
  in
  List.iter (walk None) q.Pattern.roots;
  let q_ret_index = Hashtbl.create 8 in
  List.iteri
    (fun i (n : Pattern.node) -> Hashtbl.replace q_ret_index n.Pattern.nid i)
    (Pattern.return_nodes q);
  let q_ann = Hashtbl.create 16 in
  List.iter
    (fun (n : Pattern.node) ->
      Hashtbl.replace q_ann n.Pattern.nid (Canonical.path_annotation s q n.Pattern.nid))
    (Pattern.nodes q);
  { q; q_parent; q_edge; q_label; q_formula; q_ret_index; q_ann }

let q_ancestors qi nid =
  let rec go n acc =
    match Hashtbl.find_opt qi.q_parent n with
    | Some p -> go p (p :: acc)
    | None -> acc
  in
  go nid []

let q_is_ancestor qi a b = List.mem a (q_ancestors qi b)

(* The chain of query edges from [a] (exclusive) down to [b] (inclusive),
   as (axis, label, edge, formula, nid) steps; None if [a] is not an
   ancestor-or-self of [b]. *)
let q_chain qi a b =
  if a = b then Some []
  else if not (q_is_ancestor qi a b) then None
  else
    let rec climb n acc =
      if n = a then Some acc
      else
        match Hashtbl.find_opt qi.q_parent n with
        | None -> None
        | Some p ->
            let e = Hashtbl.find qi.q_edge n in
            climb p ((e.Pattern.axis, Hashtbl.find qi.q_label n, e, n) :: acc)
    in
    climb b []

(* --- View matching -------------------------------------------------------- *)

type vmatch = { view : view; h : (int * int) list (* view nid -> query nid *) }

(* Per-view structural index, mirroring the query's. *)
let view_ancestor (vp : Pattern.t) a b =
  let rec find_path (t : Pattern.tree) acc =
    if t.node.Pattern.nid = b then Some acc
    else
      List.find_map (fun c -> find_path c (t.node.Pattern.nid :: acc)) t.children
  in
  match List.find_map (fun r -> find_path r []) vp.Pattern.roots with
  | Some ancs -> List.mem a ancs
  | None -> false

let intersects a b = List.exists (fun x -> List.mem x b) a

let matches_of_view s ~query v =
  let qi = index_query s query in
  let vret = Pattern.return_nodes v.vpattern in
  let v_ann nid = Canonical.path_annotation s v.vpattern nid in
  let q_nodes = Pattern.nodes query in
  (* Candidate query nodes per view return node. *)
  let cands =
    List.map
      (fun (vn : Pattern.node) ->
        let va = v_ann vn.Pattern.nid in
        ( vn.Pattern.nid,
          List.filter_map
            (fun (qn : Pattern.node) ->
              let qa = Hashtbl.find qi.q_ann qn.Pattern.nid in
              if intersects va qa then Some qn.Pattern.nid else None)
            q_nodes ))
      vret
  in
  let consistent h (vn, qn) =
    List.for_all
      (fun (vn', qn') ->
        qn <> qn'
        && (not (view_ancestor v.vpattern vn vn') || q_is_ancestor qi qn qn')
        && (not (view_ancestor v.vpattern vn' vn) || q_is_ancestor qi qn' qn))
      h
  in
  let rec enumerate h = function
    | [] -> if h = [] then [] else [ List.rev h ]
    | (vn, qns) :: rest ->
        (* Leave the node uncovered, or map it to a compatible query node. *)
        enumerate h rest
        @ List.concat_map
            (fun qn -> if consistent h (vn, qn) then enumerate ((vn, qn) :: h) rest else [])
            qns
  in
  enumerate [] cands

(* --- Needs and providers -------------------------------------------------- *)

type need =
  | Attr_need of int * Pattern.attr  (* query nid, attribute *)
  | Formula_need of int
  | Label_need of int
      (* the query node's concrete label must be enforced: either a
         concretely-labeled view node maps there, or a wildcard node
         storing [L] does (compensated by a label selection) *)

type provider =
  | Direct of int * int  (* match index, view nid *)
  | Derived of int * int * int  (* match index, view nid (descendant), levels *)
  | Extracted of int * int * int  (* match index, anchor view nid, anchor qnid *)

let query_needs qi =
  let attr_needs =
    List.concat_map
      (fun (n : Pattern.node) ->
        List.map (fun a -> Attr_need (n.Pattern.nid, a)) (Pattern.stored_attrs n))
      (Pattern.nodes qi.q)
  in
  let formula_needs =
    Hashtbl.fold
      (fun nid f acc -> if Formula.is_true f then acc else Formula_need nid :: acc)
      qi.q_formula []
  in
  (* Return and formula-bearing nodes with concrete labels must have their
     label enforced by some view. *)
  let label_needs =
    List.sort_uniq compare
      (List.filter_map
         (fun need ->
           let nid = match need with
             | Attr_need (n, _) | Formula_need n | Label_need n -> n
           in
           let lbl = Hashtbl.find qi.q_label nid in
           if String.equal lbl "*" || String.equal lbl "@*" then None
           else Some (Label_need nid))
         (attr_needs @ formula_needs))
  in
  attr_needs @ formula_needs @ label_needs

let view_node (v : view) nid =
  match Pattern.find_node v.vpattern nid with
  | Some n -> n
  | None -> invalid_arg "Rewrite: dangling view nid"

(* Chains usable for Extract / Derive compensations: plain query chains
   whose intermediate nodes store nothing and carry no formulas. *)
let plain_chain qi a b =
  match q_chain qi a b with
  | None -> None
  | Some steps ->
      let inner = List.filteri (fun i _ -> i < List.length steps - 1) steps in
      if
        List.for_all
          (fun (_, _, _, nid) ->
            Hashtbl.mem qi.q_ret_index nid = false
            && Formula.is_true (Hashtbl.find qi.q_formula nid))
          inner
      then Some steps
      else None

let providers_for qi (ms : vmatch array) need : provider list =
  let collect f =
    let acc = ref [] in
    Array.iteri (fun i m -> acc := !acc @ f i m) ms;
    !acc
  in
  match need with
  | Attr_need (qnid, attr) ->
      collect (fun i (m : vmatch) ->
          let direct =
            List.filter_map
              (fun (vn, qn) ->
                if qn <> qnid then None
                else
                  let node = view_node m.view vn in
                  match attr with
                  | Pattern.ID -> (
                      let wanted =
                        match Pattern.find_node qi.q qnid with
                        | Some qnode -> qnode.Pattern.id_scheme
                        | None -> None
                      in
                      match (node.Pattern.id_scheme, wanted) with
                      | Some have, Some want when Nid.subsumes have want ->
                          Some (Direct (i, vn))
                      | _ -> None)
                  | Pattern.L ->
                      if node.Pattern.tag_stored then Some (Direct (i, vn)) else None
                  | Pattern.V ->
                      if node.Pattern.val_stored then Some (Direct (i, vn)) else None
                  | Pattern.C ->
                      if node.Pattern.cont_stored then Some (Direct (i, vn)) else None)
              m.h
          in
          let derived =
            match attr with
            | Pattern.ID ->
                List.filter_map
                  (fun (vn, qn) ->
                    let node = view_node m.view vn in
                    if node.Pattern.id_scheme <> Some Nid.Parental then None
                    else
                      match plain_chain qi qnid qn with
                      | Some steps
                        when steps <> []
                             && List.for_all
                                  (fun (ax, _, _, _) -> ax = Pattern.Child)
                                  steps ->
                          Some (Derived (i, vn, List.length steps))
                      | _ -> None)
                  m.h
            | Pattern.L | Pattern.V | Pattern.C -> []
          in
          let extracted =
            match attr with
            | Pattern.V | Pattern.C ->
                List.filter_map
                  (fun (vn, qn) ->
                    let node = view_node m.view vn in
                    if not node.Pattern.cont_stored then None
                    else if Pattern.col_path m.view.vpattern vn Pattern.C |> List.length
                            <> 1
                    then None
                    else
                      match plain_chain qi qn qnid with
                      | Some steps when steps <> [] -> Some (Extracted (i, vn, qn))
                      | _ -> None)
                  m.h
            | Pattern.ID | Pattern.L -> []
          in
          direct @ derived @ extracted)
  | Label_need qnid ->
      collect (fun i (m : vmatch) ->
          List.filter_map
            (fun (vn, qn) ->
              if qn <> qnid then None
              else
                let node = view_node m.view vn in
                let concrete =
                  (not (String.equal node.Pattern.label "*"))
                  && not (String.equal node.Pattern.label "@*")
                in
                if concrete || node.Pattern.tag_stored then Some (Direct (i, vn))
                else None)
            m.h
          (* Navigation from a content anchor enforces the label itself;
             a parental-ID derivation pins it through the summary path. *)
          @ List.filter_map
              (fun (vn, qn) ->
                let node = view_node m.view vn in
                if
                  node.Pattern.cont_stored
                  && List.length (Pattern.col_path m.view.vpattern vn Pattern.C) = 1
                then
                  match plain_chain qi qn qnid with
                  | Some steps when steps <> [] -> Some (Extracted (i, vn, qn))
                  | _ -> None
                else None)
              m.h
          @ List.filter_map
              (fun (vn, qn) ->
                let node = view_node m.view vn in
                if node.Pattern.id_scheme <> Some Nid.Parental then None
                else
                  match plain_chain qi qnid qn with
                  | Some steps
                    when steps <> []
                         && List.for_all (fun (ax, _, _, _) -> ax = Pattern.Child) steps
                    -> Some (Derived (i, vn, List.length steps))
                  | _ -> None)
              m.h)
  | Formula_need qnid ->
      collect (fun i (m : vmatch) ->
          List.filter_map
            (fun (vn, qn) ->
              if qn <> qnid then None
              else
                let node = view_node m.view vn in
                let qf = Hashtbl.find qi.q_formula qnid in
                if Formula.implies node.Pattern.formula qf then Some (Direct (i, vn))
                else if node.Pattern.val_stored then Some (Direct (i, vn))
                else None)
            m.h
          @ List.filter_map
              (fun (vn, qn) ->
                let node = view_node m.view vn in
                if not node.Pattern.cont_stored then None
                else if
                  Pattern.col_path m.view.vpattern vn Pattern.C |> List.length <> 1
                then None
                else
                  match plain_chain qi qn qnid with
                  | Some steps when steps <> [] -> Some (Extracted (i, vn, qn))
                  | _ -> None)
              m.h)

(* --- Candidate sets of matches -------------------------------------------- *)

(* Sets of at most [max_views] matches covering all needs; returned as
   arrays of matches with an assignment need -> provider. *)
let covering_sets qi all_matches ~max_views =
  let needs = query_needs qi in
  let results = ref [] in
  let seen = Hashtbl.create 32 in
  let rec cover chosen pending =
    match pending with
    | [] ->
        let key = List.sort compare (List.map fst chosen) in
        if not (Hashtbl.mem seen key) then (
          Hashtbl.add seen key ();
          results := List.map snd chosen :: !results)
    | need :: rest ->
        let ms = Array.of_list (List.map snd chosen) in
        let existing = providers_for qi ms need in
        if existing <> [] then cover chosen rest
        else if List.length chosen >= max_views then ()
        else
          List.iteri
            (fun mi (m : vmatch) ->
              if not (List.mem_assoc mi chosen) then
                let ms' = Array.of_list (List.map snd (chosen @ [ (mi, m) ])) in
                let provs = providers_for qi ms' need in
                if
                  List.exists
                    (function
                      | Direct (i, _) | Derived (i, _, _) | Extracted (i, _, _) ->
                          i = Array.length ms' - 1)
                    provs
                then cover (chosen @ [ (mi, m) ]) rest)
            all_matches
  in
  cover [] needs;
  !results

(* --- Plan construction ---------------------------------------------------- *)

let prefix i name = Printf.sprintf "v%d:%s" i name

let base_plan i (m : vmatch) =
  let renames =
    List.map
      (fun (c : Rel.column) -> (c.Rel.cname, prefix i c.Rel.cname))
      (Pattern.schema m.view.vpattern)
  in
  Logical.Rename (renames, Logical.Scan m.view.vname)

let provider_col ms provider attr qnid =
  match provider with
  | Direct (i, vn) -> (
      let m = ms.(i) in
      match Pattern.col_path m.view.vpattern vn attr with
      | top :: rest -> prefix i top :: rest
      | [] -> invalid_arg "Rewrite.provider_col")
  | Derived (i, vn, levels) -> [ prefix i (Printf.sprintf "dID@%d+%d" vn levels) ]
  | Extracted (_, _, _) -> (
      match attr with
      | Pattern.V -> [ Printf.sprintf "x%dV" qnid ]
      | Pattern.C -> [ Printf.sprintf "x%dC" qnid ]
      | Pattern.ID | Pattern.L -> invalid_arg "Rewrite: cannot extract IDs or labels")

(* An identifier source: a view column, possibly lifted [levels] ancestors
   up via Derive. *)
type id_src = { mi : int; vn : int; levels : int }

type conn =
  | Conn_eq of id_src * id_src
  | Conn_struct of id_src * id_src * Pattern.axis  (* ancestor side first *)

let id_col ms (src : id_src) =
  if src.levels = 0 then
    match Pattern.col_path ms.(src.mi).view.vpattern src.vn Pattern.ID with
    | top :: rest -> prefix src.mi top :: rest
    | [] -> assert false
  else
    let qn = List.assoc src.vn ms.(src.mi).h in
    ignore qn;
    [ prefix src.mi (Printf.sprintf "dID@%d+%d" src.vn src.levels) ]

(* Top-level ID sources per query node for one candidate: direct IDs plus
   parental derivations along all-child chains. *)
let effective_ids qi ms =
  let acc = ref [] in
  Array.iteri
    (fun i (m : vmatch) ->
      List.iter
        (fun (vn, qn) ->
          let node = view_node m.view vn in
          match node.Pattern.id_scheme with
          | None -> ()
          | Some scheme ->
              if List.length (Pattern.col_path m.view.vpattern vn Pattern.ID) = 1 then (
                acc := (qn, { mi = i; vn; levels = 0 }, scheme) :: !acc;
                if scheme = Nid.Parental then
                  (* Every all-child ancestor of qn is derivable. *)
                  List.iter
                    (fun qa ->
                      match plain_chain qi qa qn with
                      | Some steps
                        when steps <> []
                             && List.for_all (fun (ax, _, _, _) -> ax = Pattern.Child) steps
                        ->
                          acc :=
                            (qa, { mi = i; vn; levels = List.length steps }, Nid.Parental)
                            :: !acc
                      | _ -> ())
                    (q_ancestors qi qn)))
        m.h)
    ms;
  !acc

let structural scheme = scheme = Nid.Structural || scheme = Nid.Parental

(* Left-deep connection of the matches; returns the joined plan and the
   list of connections used (for member consistency). *)
let connect qi ms plans =
  let ids = effective_ids qi ms in
  let n = Array.length ms in
  let in_group g i = List.mem i g in
  let find_conn g1 g2 =
    let ids1 = List.filter (fun (_, src, _) -> in_group g1 src.mi) ids in
    let ids2 = List.filter (fun (_, src, _) -> in_group g2 src.mi) ids in
    let eq =
      List.find_map
        (fun (qn1, s1, sc1) ->
          List.find_map
            (fun (qn2, s2, sc2) ->
              if qn1 = qn2 && sc1 = sc2 then Some (Conn_eq (s1, s2)) else None)
            ids2)
        ids1
    in
    match eq with
    | Some c -> Some c
    | None ->
        List.find_map
          (fun (qn1, s1, sc1) ->
            List.find_map
              (fun (qn2, s2, sc2) ->
                if not (structural sc1 && structural sc2) then None
                else if q_is_ancestor qi qn1 qn2 then
                  let axis =
                    match q_chain qi qn1 qn2 with
                    | Some [ (Pattern.Child, _, _, _) ] -> Pattern.Child
                    | _ -> Pattern.Descendant
                  in
                  Some (Conn_struct (s1, s2, axis))
                else if q_is_ancestor qi qn2 qn1 then
                  let axis =
                    match q_chain qi qn2 qn1 with
                    | Some [ (Pattern.Child, _, _, _) ] -> Pattern.Child
                    | _ -> Pattern.Descendant
                  in
                  Some (Conn_struct (s2, s1, axis))
                else None)
              ids2)
          ids1
  in
  (* Derive operators needed by any id source with levels > 0 are applied
     up front on the owning match's base plan. *)
  let derive_cols = Hashtbl.create 8 in
  List.iter
    (fun (_, src, _) ->
      if src.levels > 0 then Hashtbl.replace derive_cols (src.mi, src.vn, src.levels) ())
    ids;
  let plans =
    Array.mapi
      (fun i p ->
        Hashtbl.fold
          (fun (mi, vn, levels) () acc ->
            if mi <> i then acc
            else
              Logical.Derive
                { src =
                    (match Pattern.col_path ms.(i).view.vpattern vn Pattern.ID with
                    | top :: rest -> prefix i top :: rest
                    | [] -> assert false);
                  levels;
                  out = prefix i (Printf.sprintf "dID@%d+%d" vn levels);
                  input = acc })
          derive_cols p)
      plans
  in
  let conns = ref [] in
  let rec merge groups =
    match groups with
    | [] -> invalid_arg "Rewrite.connect: no matches"
    | [ (g, p) ] -> (g, p)
    | (g1, p1) :: rest -> (
        let rec try_rest acc = function
          | [] -> None
          | (g2, p2) :: more -> (
              match find_conn g1 g2 with
              | Some c -> Some ((g2, p2), c, List.rev acc @ more)
              | None -> try_rest ((g2, p2) :: acc) more)
        in
        match try_rest [] rest with
        | Some ((g2, p2), c, others) ->
            conns := c :: !conns;
            let joined =
              match c with
              | Conn_eq (s1, s2) ->
                  Logical.Join
                    { kind = Logical.Inner;
                      pred = Pred.Cmp (Pred.Col (id_col ms s1), Pred.Eq, Pred.Col (id_col ms s2));
                      nest_as = "";
                      left = p1;
                      right = p2 }
              | Conn_struct (anc, desc, axis) ->
                  let lr_swap = in_group g2 anc.mi in
                  let lp, rp, l, r =
                    if lr_swap then (id_col ms anc, id_col ms desc, p2, p1)
                    else (id_col ms anc, id_col ms desc, p1, p2)
                  in
                  Logical.Struct_join
                    { kind = Logical.Inner;
                      axis =
                        (match axis with
                        | Pattern.Child -> Logical.Child
                        | Pattern.Descendant -> Logical.Descendant);
                      lpath = lp;
                      rpath = rp;
                      nest_as = "";
                      left = l;
                      right = r }
            in
            merge ((g1 @ g2, joined) :: others)
        | None ->
            (* No connection: cartesian product with the next group. *)
            let g2, p2 = List.hd rest in
            merge ((g1 @ g2, Logical.Product (p1, p2)) :: List.tl rest))
  in
  let _, plan = merge (List.init n (fun i -> ([ i ], plans.(i)))) in
  (plan, !conns)

(* --- Compensations --------------------------------------------------------- *)

let sem_of_kind = function
  | Logical.Inner -> Pattern.Join
  | Logical.LeftOuter -> Pattern.Outer
  | Logical.Semi -> Pattern.Semi
  | Logical.NestJoin -> Pattern.Nest_join
  | Logical.NestOuter -> Pattern.Nest_outer

let chain_kind steps =
  let optional = List.exists (fun (_, _, e, _) -> Pattern.optional_edge e) steps in
  let nested = List.exists (fun (_, _, e, _) -> Pattern.nested_edge e) steps in
  match (nested, optional) with
  | true, true -> Logical.NestOuter
  | true, false -> Logical.NestJoin
  | false, true -> Logical.LeftOuter
  | false, false -> Logical.Inner

let logical_axis = function
  | Pattern.Child -> Logical.Child
  | Pattern.Descendant -> Logical.Descendant

(* Wildcard view nodes that store their label and map onto a concretely
   labeled query node are compensated by a selection on the stored label
   (the Edge store's σ[name = c], §2.3.1). *)
let label_selects qi (ms : vmatch array) =
  let acc = ref [] in
  Array.iteri
    (fun i (m : vmatch) ->
      List.iter
        (fun (vn, qn) ->
          let node = view_node m.view vn in
          let qlabel = Hashtbl.find qi.q_label qn in
          if
            (String.equal node.Pattern.label "*" || String.equal node.Pattern.label "@*")
            && (not (String.equal qlabel "*"))
            && (not (String.equal qlabel "@*"))
            && node.Pattern.tag_stored
          then acc := (i, vn, qlabel) :: !acc)
        m.h)
    ms;
  !acc

(* Choose one provider per need, preferring Direct over Derived over
   Extracted; None when a need has no provider. *)
let assign_providers qi ms =
  let needs = query_needs qi in
  let rec pick = function
    | [] -> Some []
    | need :: rest -> (
        let provs = providers_for qi ms need in
        let better a b =
          let rank = function Direct _ -> 0 | Derived _ -> 1 | Extracted _ -> 2 in
          if rank a <= rank b then a else b
        in
        match provs with
        | [] -> None
        | first :: more -> (
            let chosen = List.fold_left better first more in
            match pick rest with
            | Some assigned -> Some ((need, chosen) :: assigned)
            | None -> None))
  in
  pick needs

(* Extract operators required by the assignment, grouped per
   (anchor, target) pair. *)
let extract_ops qi ms assignment plan =
  let fold plan (need, provider) =
    match (need, provider) with
    | Attr_need (qnid, attr), Extracted (i, vn, qa) ->
        let steps = Option.get (plain_chain qi qa qnid) in
        let kind = chain_kind steps in
        Logical.Extract
          { src =
              (match Pattern.col_path ms.(i).view.vpattern vn Pattern.C with
              | top :: rest -> prefix i top :: rest
              | [] -> assert false);
            steps = List.map (fun (ax, l, _, _) -> (logical_axis ax, l)) steps;
            mode = (match attr with Pattern.C -> `Content | _ -> `Value);
            kind;
            out =
              (match attr with
              | Pattern.V -> Printf.sprintf "x%dV" qnid
              | Pattern.C -> Printf.sprintf "x%dC" qnid
              | _ -> assert false);
            input = plan }
    | Formula_need qnid, Extracted (i, vn, qa) ->
        let steps = Option.get (plain_chain qi qa qnid) in
        let out = Printf.sprintf "xf%d" qnid in
        let extract =
          Logical.Extract
            { src =
                (match Pattern.col_path ms.(i).view.vpattern vn Pattern.C with
                | top :: rest -> prefix i top :: rest
                | [] -> assert false);
              steps = List.map (fun (ax, l, _, _) -> (logical_axis ax, l)) steps;
              mode = `Value;
              kind = Logical.NestJoin;
              out;
              input = plan }
        in
        Logical.Select
          (Formula.to_pred [ out; "x" ] (Hashtbl.find qi.q_formula qnid), extract)
    | _ -> plan
  in
  List.fold_left fold plan assignment

let select_ops qi ms assignment plan =
  let plan =
    List.fold_left
      (fun plan (i, vn, qlabel) ->
        match Pattern.col_path ms.(i).view.vpattern vn Pattern.L with
        | top :: rest ->
            Logical.Select
              ( Pred.Cmp
                  (Pred.Col (prefix i top :: rest), Pred.Eq,
                   Pred.Const (Xalgebra.Value.Str qlabel)),
                plan )
        | [] -> plan)
      plan (label_selects qi ms)
  in
  let fold plan (need, provider) =
    match (need, provider) with
    | Formula_need qnid, Direct (i, vn) ->
        let node = view_node ms.(i).view vn in
        let qf = Hashtbl.find qi.q_formula qnid in
        if Formula.implies node.Pattern.formula qf then plan
        else
          Logical.Select
            (Formula.to_pred (provider_col ms (Direct (i, vn)) Pattern.V qnid) qf, plan)
    | Label_need _, _ -> plan (* enforced by the label selections *)
    | _ -> plan
  in
  List.fold_left fold plan assignment

let projection qi ms assignment plan =
  let cols =
    List.concat_map
      (fun (n : Pattern.node) ->
        List.map
          (fun attr ->
            let provider =
              List.find_map
                (fun (need, p) ->
                  match need with
                  | Attr_need (qnid, a) when qnid = n.Pattern.nid && a = attr -> Some p
                  | _ -> None)
                assignment
            in
            match provider with
            | Some (Extracted _ as p) -> (
                let base = provider_col ms p attr n.Pattern.nid in
                (* Nest-kind extracts wrap the value in a nested column. *)
                match
                  List.find_map
                    (fun (need, prov) ->
                      match (need, prov) with
                      | Attr_need (qnid, a), Extracted (_, _, qa)
                        when qnid = n.Pattern.nid && a = attr ->
                          Some (chain_kind (Option.get (plain_chain qi qa qnid)))
                      | _ -> None)
                    assignment
                with
                | Some (Logical.NestJoin | Logical.NestOuter) -> base @ [ "x" ]
                | _ -> base)
            | Some p -> provider_col ms p attr n.Pattern.nid
            | None -> invalid_arg "Rewrite.projection: unassigned need")
          (Pattern.stored_attrs n))
      (Pattern.return_nodes qi.q)
  in
  Logical.Project { cols; dedup = true; input = plan }

(* --- The plan's equivalent pattern union (§5.5) ---------------------------- *)

(* Per-path accumulated information for one merged summary-subtree member. *)
type proto = {
  mutable p_formula : Formula.t;
  mutable p_attrs : (Pattern.attr * Nid.scheme option * int) list;  (* attr, scheme, qnid *)
  mutable p_sem : Pattern.semantics option;
  mutable p_grafts :
    ((Pattern.axis * string * Pattern.edge * int) list * Logical.join_kind
    * (Pattern.attr * int) list * Formula.t)
    list;
}

let fresh_proto () = { p_formula = Formula.tt; p_attrs = []; p_sem = None; p_grafts = [] }

let ancestors_or_self s p =
  let rec go p acc = if p < 0 then acc else go (Summary.parent s p) (p :: acc) in
  go p []

exception Reject

(* View edges with non-Join semantics, as (parent nid option, child tree). *)
let special_edges (vp : Pattern.t) =
  let acc = ref [] in
  let rec walk parent (t : Pattern.tree) =
    if t.edge.Pattern.sem <> Pattern.Join then acc := (parent, t) :: !acc;
    List.iter (walk (Some t.node.Pattern.nid)) t.children
  in
  List.iter (walk None) vp.Pattern.roots;
  !acc

let rec pattern_subtree_nids (t : Pattern.tree) =
  t.node.Pattern.nid :: List.concat_map pattern_subtree_nids t.children

let member_of qi s (ms : vmatch array) assignment conns (embs : int array array) =
  try
    let n_matches = Array.length ms in
    let image i nid = embs.(i).(nid) in
    let src_path (src : id_src) =
      let rec up p k = if k = 0 then p else up (Summary.parent s p) (k - 1) in
      let p = up (image src.mi src.vn) src.levels in
      if p < 0 then raise Reject else p
    in
    (* Stored-label compensations restrict the embeddings. *)
    List.iter
      (fun (i, vn, qlabel) ->
        if not (String.equal (Summary.label s (image i vn)) qlabel) then raise Reject)
      (label_selects qi ms);
    (* Join-predicate consistency across embeddings. *)
    List.iter
      (fun c ->
        match c with
        | Conn_eq (s1, s2) -> if src_path s1 <> src_path s2 then raise Reject
        | Conn_struct (anc, desc, axis) ->
            let pa = src_path anc and pd = src_path desc in
            let ok =
              match axis with
              | Pattern.Child -> Summary.is_parent s pa pd
              | Pattern.Descendant -> Summary.is_ancestor s pa pd
            in
            if not ok then raise Reject)
      conns;
    (* Closure of used paths per match, and globally. *)
    let closure_of i =
      let nids = List.init (Array.length embs.(i)) Fun.id in
      List.sort_uniq Int.compare
        (List.concat_map
           (fun nid -> if embs.(i).(nid) >= 0 then ancestors_or_self s embs.(i).(nid) else [])
           nids)
    in
    let closures = Array.init n_matches closure_of in
    (* Optional/nested regions must not overlap any other usage: the merged
       pattern cannot express one view requiring what another makes
       optional. *)
    let protos : (int, proto) Hashtbl.t = Hashtbl.create 32 in
    let proto p =
      match Hashtbl.find_opt protos p with
      | Some x -> x
      | None ->
          let x = fresh_proto () in
          Hashtbl.add protos p x;
          x
    in
    Array.iteri
      (fun i (m : vmatch) ->
        List.iter
          (fun (parent, (c : Pattern.tree)) ->
            match parent with
            | None -> raise Reject (* non-join root edges: not merged *)
            | Some pnid ->
                let pp = image i pnid and pc = image i c.node.Pattern.nid in
                (* First path step from the parent's image toward the
                   child's image carries the special semantics. *)
                let rec first_step q =
                  let par = Summary.parent s q in
                  if par = pp then q
                  else if par < 0 then raise Reject
                  else first_step par
                in
                let pi_first = first_step pc in
                (* Region: the S-subtree under pi_first. No other match may
                   use paths inside it, and within this match only the
                   optional subtree's own images may. *)
                let subtree_nids = pattern_subtree_nids c in
                Array.iteri
                  (fun j cl ->
                    List.iter
                      (fun path ->
                        if Summary.is_ancestor s pi_first path || path = pi_first then
                          if j <> i then raise Reject
                          else if
                            not
                              (List.exists
                                 (fun nid ->
                                   let ip = image i nid in
                                   ip = path || Summary.is_ancestor s path ip
                                   || Summary.is_ancestor s ip path || ip = path)
                                 subtree_nids)
                          then raise Reject)
                      cl)
                  closures;
                let pr = proto pi_first in
                (match pr.p_sem with
                | Some sem when sem <> c.edge.Pattern.sem -> raise Reject
                | _ -> pr.p_sem <- Some c.edge.Pattern.sem))
          (special_edges m.view.vpattern))
      ms;
    (* View node formulas. *)
    Array.iteri
      (fun i (m : vmatch) ->
        List.iter
          (fun (n : Pattern.node) ->
            if not (Formula.is_true n.Pattern.formula) then
              let pr = proto (image i n.Pattern.nid) in
              pr.p_formula <- Formula.conj pr.p_formula n.Pattern.formula)
          (Pattern.nodes m.view.vpattern))
      ms;
    (* Providers: attributes, derived IDs, grafts, enforced formulas. *)
    let anchor_of_qnid : (int, [ `Path of int | `Graft of int * int ]) Hashtbl.t =
      Hashtbl.create 8
    in
    let set_anchor qnid a =
      match Hashtbl.find_opt anchor_of_qnid qnid with
      | Some a' when a' <> a -> raise Reject
      | _ -> Hashtbl.replace anchor_of_qnid qnid a
    in
    List.iter
      (fun (need, provider) ->
        match (need, provider) with
        | Attr_need (qnid, attr), Direct (i, vn) ->
            let p = image i vn in
            set_anchor qnid (`Path p);
            let node = view_node ms.(i).view vn in
            let scheme = if attr = Pattern.ID then node.Pattern.id_scheme else None in
            (proto p).p_attrs <- (proto p).p_attrs @ [ (attr, scheme, qnid) ]
        | Attr_need (qnid, attr), Derived (i, vn, levels) ->
            let p = src_path { mi = i; vn; levels } in
            set_anchor qnid (`Path p);
            (proto p).p_attrs <-
              (proto p).p_attrs @ [ (attr, Some Nid.Parental, qnid) ]
        | Attr_need (qnid, attr), Extracted (i, vn, qa) ->
            let anchor = image i vn in
            set_anchor qnid (`Graft (anchor, qnid));
            let steps = Option.get (plain_chain qi qa qnid) in
            let kind = chain_kind steps in
            let pr = proto anchor in
            (* Merge with an existing graft for the same target. *)
            let rec add = function
              | [] -> [ (steps, kind, [ (attr, qnid) ], Formula.tt) ]
              | (st, k, attrs, f) :: rest ->
                  if
                    List.exists (fun (_, q') -> q' = qnid) attrs
                    || (st = steps && k = kind)
                  then (st, k, attrs @ [ (attr, qnid) ], f) :: rest
                  else (st, k, attrs, f) :: add rest
            in
            pr.p_grafts <- add pr.p_grafts
        | Formula_need qnid, Direct (i, vn) ->
            let p = image i vn in
            let pr = proto p in
            pr.p_formula <- Formula.conj pr.p_formula (Hashtbl.find qi.q_formula qnid)
        | Formula_need qnid, Extracted (i, vn, qa) ->
            let anchor = image i vn in
            let steps = Option.get (plain_chain qi qa qnid) in
            let pr = proto anchor in
            let qf = Hashtbl.find qi.q_formula qnid in
            let rec add = function
              | [] -> [ (steps, Logical.NestJoin, [], qf) ]
              | (st, k, attrs, f) :: rest ->
                  if List.exists (fun (_, q') -> q' = qnid) attrs || st = steps then
                    (st, k, attrs, Formula.conj f qf) :: rest
                  else (st, k, attrs, f) :: add rest
            in
            pr.p_grafts <- add pr.p_grafts
        | Formula_need _, Derived _ -> raise Reject
        | Label_need _, _ -> () (* enforced by the label selections *))
      assignment;
    (* Assemble the merged pattern over the global path closure. *)
    let all_paths =
      List.sort_uniq Int.compare (List.concat (Array.to_list closures))
    in
    if all_paths = [] || List.hd all_paths <> 0 then raise Reject;
    let children_of p =
      List.filter (fun c -> List.mem c all_paths) (Summary.children s p)
    in
    let ret_order = ref [] in
    let rec build p : Pattern.tree =
      let pr = match Hashtbl.find_opt protos p with Some x -> x | None -> fresh_proto () in
      let id_scheme =
        List.find_map
          (fun (a, sch, _) -> if a = Pattern.ID then Some sch else None)
          pr.p_attrs
        |> Option.join
      in
      let has a = List.exists (fun (a', _, _) -> a' = a) pr.p_attrs in
      (match pr.p_attrs with
      | [] -> ()
      | (_, _, qnid) :: rest ->
          if List.exists (fun (_, _, q') -> q' <> qnid) rest then raise Reject;
          ret_order := qnid :: !ret_order);
      let node =
        Pattern.mk_node ?id:id_scheme ~tag:(has Pattern.L) ~value:(has Pattern.V)
          ~cont:(has Pattern.C) ~formula:pr.p_formula (Summary.label s p)
      in
      let kids = List.map build (children_of p) in
      let graft_kids = List.map (build_graft p) pr.p_grafts in
      let sem = Option.value ~default:Pattern.Join pr.p_sem in
      Pattern.tree ~axis:Pattern.Child ~sem node (kids @ graft_kids)
    and build_graft _anchor (steps, kind, attrs, formula) : Pattern.tree =
      let rec chain first = function
        | [] -> raise Reject
        | [ (axis, label, _, qnid) ] ->
            let store_v = List.exists (fun (a, _) -> a = Pattern.V) attrs in
            let store_c = List.exists (fun (a, _) -> a = Pattern.C) attrs in
            if store_v || store_c then ret_order := qnid :: !ret_order;
            let node = Pattern.mk_node ~value:store_v ~cont:store_c ~formula label in
            Pattern.tree ~axis
              ~sem:(if first then sem_of_kind kind else Pattern.Join)
              node []
        | (axis, label, _, _) :: rest ->
            Pattern.tree ~axis
              ~sem:(if first then sem_of_kind kind else Pattern.Join)
              (Pattern.mk_node label)
              [ chain false rest ]
      in
      chain true steps
    in
    (* Build from the summary root's used children; the root path itself is
       always used (closure includes 0). *)
    let root_tree = build 0 in
    (* The root of the merged pattern is the document's top element: a
       Child edge from ⊤. *)
    let member = Pattern.make [ { root_tree with edge = { axis = Pattern.Child; sem = Pattern.Join } } ] in
    (* Permutation: member return nodes were recorded bottom-up per build
       order; rebuild pre-order association. *)
    let qnids_pre = List.rev !ret_order in
    let k = List.length (Pattern.return_nodes qi.q) in
    if List.length (Pattern.return_nodes member) <> k then raise Reject;
    if List.length qnids_pre <> k then raise Reject;
    let perm =
      Array.of_list
        (List.map
           (fun qnid ->
             match Hashtbl.find_opt qi.q_ret_index qnid with
             | Some i -> i
             | None -> raise Reject)
           qnids_pre)
    in
    let seen = Array.make k false in
    Array.iter
      (fun j -> if j < 0 || j >= k || seen.(j) then raise Reject else seen.(j) <- true)
      perm;
    Some (member, perm)
  with Reject -> None

(* --- Main entry ------------------------------------------------------------ *)

let cartesian (lists : int array list array) : int array array list =
  Array.fold_left
    (fun acc l ->
      List.concat_map (fun combo -> List.map (fun e -> Array.append combo [| e |]) l) acc)
    [ [||] ] lists
  |> List.map (fun (a : int array array) -> a)

(* Whether one combination of view embeddings survives exactly the checks
   the executed plan mirrors at tuple level: stored-label selections,
   join-predicate consistency, and validity of every derived ID source.
   Deliberately NOT [member_of]: its later rejections (optional-region
   overlap, anchor conflicts, permutation checks) are about merged-pattern
   expressibility, not about which tuple combinations can join — a combo
   they reject may still produce answers at runtime, so pruning storage
   from [member_of] survivors would be unsound. *)
let combo_consistent qi s (ms : vmatch array) conns (embs : int array array) =
  try
    let image i nid = embs.(i).(nid) in
    let src_path (src : id_src) =
      let rec up p k = if k = 0 then p else up (Summary.parent s p) (k - 1) in
      let p = up (image src.mi src.vn) src.levels in
      if p < 0 then raise Reject else p
    in
    List.iter
      (fun (i, vn, qlabel) ->
        if not (String.equal (Summary.label s (image i vn)) qlabel) then raise Reject)
      (label_selects qi ms);
    List.iter
      (fun c ->
        match c with
        | Conn_eq (s1, s2) -> if src_path s1 <> src_path s2 then raise Reject
        | Conn_struct (anc, desc, axis) ->
            let pa = src_path anc and pd = src_path desc in
            let ok =
              match axis with
              | Pattern.Child -> Summary.is_parent s pa pd
              | Pattern.Descendant -> Summary.is_ancestor s pa pd
            in
            if not ok then raise Reject)
      conns;
    true
  with Reject -> false

(* The summary paths each scanned view's nodes can take in any tuple
   combination contributing to the plan's answer — what storage-level
   partition pruning is allowed to restrict a scan to. Only fully
   conjunctive view patterns are eligible: every tuple of such a view's
   extent arises from a total document embedding whose summary image is
   one of [Canonical.embeddings], so the union over consistent combos
   covers every contributing tuple. Views with optional or nested edges
   have partially-embedded tuples the enumeration does not see — they
   stay unconstrained (no entry). A view scanned several times in the
   plan resolves through one module name, so same-name entries merge:
   a node stays constrained only if every scan constrains it, and its
   allowed paths union. *)
let scan_paths_of qi s (ms : vmatch array) conns emb_lists =
  let consistent = cartesian emb_lists |> List.filter (combo_consistent qi s ms conns) in
  if consistent = [] then []
  else
    let entries_of i =
      if not (Pattern.is_conjunctive ms.(i).view.vpattern) then None
      else
        let width = Array.length (List.hd consistent).(i) in
        Some
          (List.filter_map
             (fun nid ->
               if List.for_all (fun combo -> combo.(i).(nid) >= 0) consistent then
                 Some
                   ( nid,
                     List.sort_uniq Int.compare
                       (List.map (fun combo -> combo.(i).(nid)) consistent) )
               else None)
             (List.init width Fun.id))
    in
    let merge_entries e1 e2 =
      List.filter_map
        (fun (nid, ps1) ->
          match List.assoc_opt nid e2 with
          | Some ps2 -> Some (nid, List.sort_uniq Int.compare (ps1 @ ps2))
          | None -> None)
        e1
    in
    let merged : (string, (int * int list) list option) Hashtbl.t = Hashtbl.create 4 in
    Array.iteri
      (fun i (m : vmatch) ->
        let name = m.view.vname in
        let e = entries_of i in
        let combined =
          match (Hashtbl.find_opt merged name, e) with
          | None, e -> e
          | Some None, _ | Some _, None -> None
          | Some (Some e1), Some e2 -> Some (merge_entries e1 e2)
        in
        Hashtbl.replace merged name combined)
      ms;
    Hashtbl.fold
      (fun name e acc ->
        match e with Some (_ :: _ as e) -> (name, e) :: acc | _ -> acc)
      merged []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Merge the per-branch scan-path constraints of a union plan: every
   branch scans the same module name through the same env, so a name's
   nodes stay constrained only when every branch using it constrains
   them, with allowed paths unioned. A branch using the name without
   constraints drops it. *)
let union_scan_paths (parts : rewriting list) =
  let names =
    List.sort_uniq String.compare (List.concat_map (fun r -> r.views_used) parts)
  in
  List.filter_map
    (fun name ->
      let users = List.filter (fun r -> List.mem name r.views_used) parts in
      let entries = List.map (fun r -> List.assoc_opt name r.scan_paths) users in
      if List.exists Option.is_none entries then None
      else
        match List.map Option.get entries with
        | [] -> None
        | e :: rest ->
            let merged =
              List.fold_left
                (fun acc e2 ->
                  List.filter_map
                    (fun (nid, ps1) ->
                      match List.assoc_opt nid e2 with
                      | Some ps2 ->
                          Some (nid, List.sort_uniq Int.compare (ps1 @ ps2))
                      | None -> None)
                    acc)
                e rest
            in
            if merged = [] then None else Some (name, merged))
    names

let take n l = List.filteri (fun i _ -> i < n) l

(* Specialize a conjunctive query to one of its canonical-model entries:
   the exact-path pattern whose nodes are the entry tree's, with the
   query's stored attributes on the distinguished return nodes. Returns
   the pattern and the permutation from its return order to the query's. *)
let specialize_query qi s (entry : Canonical.entry) =
  ignore s;
  let q_rets = Array.of_list (Pattern.return_nodes qi.q) in
  let ret_of_cid cid =
    let rec find i =
      if i >= Array.length entry.Canonical.ret then None
      else if entry.Canonical.ret.(i) = cid then Some i
      else find (i + 1)
    in
    find 0
  in
  let order = ref [] in
  let rec build (cn : Canonical.cnode) : Pattern.tree =
    let node =
      match ret_of_cid cn.Canonical.cid with
      | Some qi_ret ->
          order := qi_ret :: !order;
          let qnode = q_rets.(qi_ret) in
          { qnode with
            Pattern.label = Summary.label s cn.Canonical.path;
            formula = Formula.conj qnode.Pattern.formula cn.Canonical.formula }
      | None ->
          Pattern.mk_node ~formula:cn.Canonical.formula (Summary.label s cn.Canonical.path)
    in
    Pattern.tree ~axis:Pattern.Child ~sem:Pattern.Join node
      (List.map build cn.Canonical.kids)
  in
  let root = build entry.Canonical.tree in
  let spec = Pattern.make [ { root with Pattern.edge = { axis = Pattern.Child; sem = Pattern.Join } } ] in
  let perm = Array.of_list (List.rev !order) in
  if Array.length perm <> Array.length q_rets then None else Some (spec, perm)

let rec rewrite ?(constraints = true) ?(max_views = 3) ?(max_matches = 64) ?metrics s
    ~query ~views =
  (match metrics with
  | Some reg ->
      Xobs.Metrics.incr
        (Xobs.Metrics.counter reg "rewrite_calls_total"
           ~help:"rewriter invocations (incl. union specializations)")
  | None -> ());
  let qi = index_query s query in
  let all_matches =
    List.concat_map
      (fun v ->
        List.map (fun h -> { view = v; h }) (take max_matches (matches_of_view s ~query v)))
      views
  in
  let candidates = covering_sets qi all_matches ~max_views in
  (* A view with R-marked (required) attributes models an index: it is
     only usable when every required attribute is pinned by the query — a
     required Val must map to a query node whose formula is a point, a
     required Tag to a concretely-labeled query node (§2.2.2's bindings,
     realized as selections over the materialized extent). *)
  let required_keys_bound (ms : vmatch array) =
    Array.for_all
      (fun (m : vmatch) ->
        List.for_all
          (fun (n : Pattern.node) ->
            Pattern.required_attrs n = []
            ||
            match List.assoc_opt n.Pattern.nid m.h with
            | None -> false
            | Some qn ->
                List.for_all
                  (fun attr ->
                    match attr with
                    | Pattern.V -> (
                        match
                          Formula.as_single_interval (Hashtbl.find qi.q_formula qn)
                        with
                        | Some (Formula.Inclusive a, Formula.Inclusive b) ->
                            Xalgebra.Value.equal a b
                        | _ -> false)
                    | Pattern.L ->
                        let l = Hashtbl.find qi.q_label qn in
                        (not (String.equal l "*")) && not (String.equal l "@*")
                    | Pattern.ID | Pattern.C -> false)
                  (Pattern.required_attrs n))
          (Pattern.nodes m.view.vpattern))
      ms
  in
  let attempt candidate =
    let ms = Array.of_list candidate in
    if Array.length ms = 0 then None
    else if not (required_keys_bound ms) then None
    else
      match assign_providers qi ms with
      | None -> None
      | Some assignment -> (
          let plans = Array.mapi (fun i m -> base_plan i m) ms in
          match connect qi ms plans with
          | exception Invalid_argument _ -> None
          | joined, conns ->
              let plan =
                projection qi ms assignment
                  (select_ops qi ms assignment (extract_ops qi ms assignment joined))
              in
              let emb_lists =
                Array.map (fun m -> Canonical.embeddings s m.view.vpattern) ms
              in
              let total =
                Array.fold_left (fun acc l -> acc * List.length l) 1 emb_lists
              in
              if total = 0 || total > 512 then None
              else
                let members =
                  cartesian emb_lists
                  |> List.filter_map (member_of qi s ms assignment conns)
                in
                let members =
                  let seen = Hashtbl.create 8 in
                  List.filter
                    (fun (m, perm) ->
                      let key = (Pattern.to_string m, Array.to_list perm) in
                      if Hashtbl.mem seen key then false
                      else (
                        Hashtbl.add seen key ();
                        true))
                    members
                in
                if members = [] then None
                else if
                  List.for_all
                    (fun (m, perm) -> Contain.contained_mapped ~constraints s m qi.q ~perm)
                    members
                  && Contain.union_covers ~constraints s qi.q members
                then
                  Some
                    { plan;
                      members;
                      views_used = List.map (fun m -> m.view.vname) candidate;
                      scan_paths = scan_paths_of qi s ms conns emb_lists }
                else None)
  in
  (match metrics with
  | Some reg ->
      Xobs.Metrics.add
        (Xobs.Metrics.counter reg "rewrite_candidates_total"
           ~help:"candidate view sets enumerated by generate-and-test")
        (List.length candidates)
  | None -> ());
  let results =
    match List.filter_map attempt candidates with
    | [] -> union_rewritings ~constraints ~max_views ~max_matches ?metrics s qi ~views
    | results -> results
  in
  let results =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun r ->
        let key = Logical.to_string r.plan in
        if Hashtbl.mem seen key then false
        else (
          Hashtbl.add seen key ();
          true))
      results
    |> List.sort (fun a b -> Int.compare (Logical.size a.plan) (Logical.size b.plan))
  in
  (match metrics with
  | Some reg ->
      Xobs.Metrics.add
        (Xobs.Metrics.counter reg "rewrite_rewritings_total"
           ~help:"rewritings that survived the containment test")
        (List.length results)
  | None -> ());
  results

(* §5.3: unions find rewritings where none exist otherwise. A conjunctive
   query is split into its canonical-model specializations; if every
   specialization rewrites, their plans union into a rewriting of the
   whole query. *)
and union_rewritings ~constraints ~max_views ~max_matches ?metrics s qi ~views =
  try union_rewritings_exn ~constraints ~max_views ~max_matches ?metrics s qi ~views
  with Not_found -> []

and union_rewritings_exn ~constraints ~max_views ~max_matches ?metrics s qi ~views =
  if not (Pattern.is_conjunctive qi.q) then []
  else
    let entries = List.of_seq (Seq.take 17 (Canonical.model s qi.q)) in
    if List.length entries < 2 || List.length entries > 16 then []
    else
      let specs = List.map (specialize_query qi s) entries in
      if List.exists Option.is_none specs then []
      else
        let specs = List.map Option.get specs in
        (* Each canonical-model specialization rewrites independently. *)
        let parts =
          List.map
            (fun (spec, perm) ->
              match
                rewrite ~constraints ~max_views ~max_matches ?metrics s ~query:spec
                  ~views
              with
              | [] -> None
              | r :: _ -> Some (r, perm))
            specs
        in
        if List.exists Option.is_none parts then []
        else
          let parts = List.map Option.get parts in
          (* Align every branch's output columns positionally with the
             query's return order before taking the union. *)
          let q_flat =
            List.concat
              (List.mapi
                 (fun j (n : Pattern.node) ->
                    List.map (fun a -> (j, a)) (Pattern.stored_attrs n))
                 (Pattern.return_nodes qi.q))
          in
          let aligned =
            List.map
              (fun ((r : rewriting), spec_perm) ->
                (* The part plan's projection follows the spec's return
                   pre-order; slot i belongs to query return spec_perm.(i). *)
                let flat_of_spec =
                  List.concat
                    (Array.to_list
                       (Array.map
                          (fun j ->
                            let n = List.nth (Pattern.return_nodes qi.q) j in
                            List.map (fun a -> (j, a)) (Pattern.stored_attrs n))
                          spec_perm))
                in
                let positions =
                  List.map
                    (fun slot ->
                      let rec find k = function
                        | [] -> raise Not_found
                        | s :: rest -> if s = slot then k else find (k + 1) rest
                      in
                      find 0 flat_of_spec)
                    q_flat
                in
                Logical.Reorder (positions, r.plan))
              parts
          in
          let plan =
            match aligned with
            | [] -> assert false
            | first :: rest ->
                List.fold_left (fun acc p -> Logical.Union (acc, p)) first rest
          in
          let members =
            List.concat_map
              (fun ((r : rewriting), spec_perm) ->
                List.map
                  (fun (m, mperm) ->
                    (m, Array.map (fun j -> spec_perm.(j)) mperm))
                  r.members)
              parts
          in
          if
            Contain.union_covers ~constraints s qi.q members
            && List.for_all
                 (fun (m, perm) -> Contain.contained_mapped ~constraints s m qi.q ~perm)
                 members
          then
            [ { plan;
                members;
                views_used =
                  List.sort_uniq String.compare
                    (List.concat_map (fun ((r : rewriting), _) -> r.views_used) parts);
                scan_paths = union_scan_paths (List.map fst parts) } ]
          else []

let best = function [] -> None | r :: _ -> Some r
