(* Seeded inputs: the bib corpus, the query pool with its Zipf
   popularity, the oracle answers, and the write-mix operation
   generator. Everything here is a pure function of the seed. *)

module Doc = Xdm.Doc
module Engine = Xengine.Engine

let books = 600
let theses = 200

(* Write batches: [batch_ops] mutations per /apply, and the checkpoint
   threshold K of the write-mix server. Cold-open replays a WAL tail of
   K/2 records, the mean replay debt that policy leaves at a crash. *)
let batch_ops = 4
let checkpoint_every = 16
let cold_tail_records = checkpoint_every / 2

(* Plan-cache capacity of a default engine; the pool must exceed it so
   the Zipf tail misses. *)
let plan_cache = 128
let zipf_s = 1.0
let pool_titles = 60

type shape =
  | Scan_titles
  | Scan_thesis
  | Year of string
  | Author of string
  | Title of string

type spelling = Nested | Conj

let shape_name = function
  | Scan_titles -> "scan-titles"
  | Scan_thesis -> "scan-thesis"
  | Year _ -> "year"
  | Author _ -> "author"
  | Title _ -> "title"

let spelling_name = function Nested -> "nested" | Conj -> "conj"

(* Both spellings of each shape: the nested one extracts to a /no edge
   (answered by the base-document fallback today), the conjunctive one
   rewrites over the path-partitioned views. *)
let text shape spelling =
  match (shape, spelling) with
  | Scan_titles, Nested ->
      {|for $b in doc("bib")//book return <t>{$b/title/text()}</t>|}
  | Scan_titles, Conj ->
      {|for $b in doc("bib")//book, $t in $b/title return <t>{$t/text()}</t>|}
  | Scan_thesis, Nested ->
      {|for $p in doc("bib")//phdthesis return <a>{$p/author/text()}</a>|}
  | Scan_thesis, Conj ->
      {|for $p in doc("bib")//phdthesis, $a in $p/author return <a>{$a/text()}</a>|}
  | Year y, Nested ->
      Printf.sprintf
        {|for $b in doc("bib")//book[@year="%s"] return <t>{$b/title/text()}</t>|} y
  | Year y, Conj ->
      Printf.sprintf
        {|for $b in doc("bib")//book, $t in $b/title where $b/@year = "%s" return <t>{$t/text()}</t>|}
        y
  | Author a, Nested ->
      Printf.sprintf
        {|for $b in doc("bib")//book[author="%s"] return <t>{$b/title/text()}</t>|} a
  | Author a, Conj ->
      Printf.sprintf
        {|for $b in doc("bib")//book, $t in $b/title where $b/author = "%s" return <t>{$t/text()}</t>|}
        a
  | Title t, Nested ->
      Printf.sprintf
        {|for $b in doc("bib")//book[title="%s"] return <a>{$b/author/text()}</a>|} t
  | Title t, Conj ->
      Printf.sprintf
        {|for $b in doc("bib")//book, $a in $b/author where $b/title = "%s" return <a>{$a/text()}</a>|}
        t

type query = { q_text : string; q_oracle : string }

let oracle doc src = Xquery.Translate.eval_direct_string doc src

exception Setup_failed of string

let setup_fail fmt = Printf.ksprintf (fun m -> raise (Setup_failed m)) fmt

(* The direct interpreter never goes through views, so it is an
   independent oracle. An empty answer means a template that matches
   nothing on the corpus (the //thesis vs phdthesis class of bug). *)
let make_query doc shape spelling =
  let src = text shape spelling in
  let o = oracle doc src in
  if o = "" then
    setup_fail "query template %s/%s yields empty output on the corpus: %s"
      (shape_name shape) (spelling_name spelling) src;
  { q_text = src; q_oracle = o }

let corpus_tree seed = Xworkload.Gen_bib.generate ~seed ~books ~theses ()
let corpus seed = Doc.of_tree ~name:"bib" (corpus_tree seed)
let xml_bytes doc = String.length (Doc.content doc (Doc.root doc))

let child_values doc h label =
  List.filter_map
    (fun c -> if Doc.label doc c = label then Some (Doc.value doc c) else None)
    (Doc.children doc h)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Corpus values of the book entries, for point lookups, most frequent
   first (ties by value): the constant at a given popularity rank then
   selects a similar share of the corpus under every seed. *)
let book_values doc label =
  let vals =
    List.concat_map (fun b -> child_values doc b label) (Doc.nodes_with_label doc "book")
  in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun v -> Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0))
    vals;
  List.map fst
    (List.sort
       (fun (a, n) (b, m) -> if n <> m then compare m n else compare a b)
       (List.of_seq (Hashtbl.to_seq counts)))

(* The pool in popularity order. The shape groups are interleaved round
   robin (each entry in both spellings, adjacent), so every seed puts
   the same shapes at the same ranks, and within a group constants go
   from the most to the least frequent; the seed picks which titles
   enter. The
   mix, and with it the figures, stays comparable across seeds. *)
let pool doc seed =
  let rng = Random.State.make [| seed; 1 |] in
  let titles = shuffle rng (book_values doc "title") in
  let groups =
    [ [ Scan_titles; Scan_thesis ];
      List.map (fun y -> Year y) (book_values doc "@year");
      List.map (fun a -> Author a) (book_values doc "author");
      List.map (fun t -> Title t) (List.filteri (fun i _ -> i < pool_titles) titles) ]
  in
  let rec rounds groups =
    if List.for_all (( = ) []) groups then []
    else
      List.filter_map (function x :: _ -> Some x | [] -> None) groups
      @ rounds (List.map (function _ :: r -> r | [] -> []) groups)
  in
  let shapes = rounds groups in
  let qs =
    Array.of_list
      (List.concat_map
         (fun s -> [ make_query doc s Nested; make_query doc s Conj ])
         shapes)
  in
  if Array.length qs <= plan_cache then
    setup_fail "query pool (%d) does not exceed the plan cache (%d)"
      (Array.length qs) plan_cache;
  qs

(* Zipf(s) over ranks 0..n-1: a cumulative table sampled by bisection. *)
type zipf = float array

let zipf n : zipf =
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw (z : zipf) rng =
  let u = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length z - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* --- The write-mix operation generator -------------------------------
   A batch appends one new book under the root, rewrites a title text
   and a @year of writer-owned books, and deletes the oldest writer book
   once more than [keep] exist, so the document size stays flat. Writer
   books sit after every original node, so original handles never move,
   and each is a fixed 6-node entry (book, @year, title, text, author,
   text): with [count] writer books, book [j] is at [n0 + 6j]. They
   carry values no reader query selects (author "Writer", years
   2100-2199, titles "W<n>"), so the reader queries' answers are
   invariant under the mix and can be checked byte for byte. *)

let keep = 4
let book_nodes = 6

let mutate doc (op : Engine.mutation) =
  match op with
  | Engine.Insert_subtree { parent; before; xml } -> (
      match Xdm.Xml_tree.parse_result xml with
      | Ok tree -> Doc.insert_subtree doc ~parent ?before tree
      | Error m -> failwith ("generated XML does not parse: " ^ m))
  | Engine.Delete_subtree { node } -> Doc.delete_subtree doc node
  | Engine.Update_value { node; value } -> Doc.update_value doc node value

(* Batch [i] with [count] writer books present: its ops and the writer
   book count after it. Op k's handles are those of the document after
   op k-1, exactly as the engine resolves them within a batch. *)
let batch ~seed ~n0 ~count i =
  let rng = Random.State.make [| seed; 2; i |] in
  let count = count + 1 in
  let book () = n0 + (book_nodes * Random.State.int rng count) in
  let insert =
    Engine.Insert_subtree
      { parent = 0;
        before = None;
        xml =
          Printf.sprintf
            {|<book year="%d"><title>W%d</title><author>Writer</author></book>|}
            (2100 + (i mod 100)) i }
  in
  let title = Engine.Update_value { node = book () + 3; value = Printf.sprintf "W%d-u" i } in
  let year =
    Engine.Update_value
      { node = book () + 1; value = string_of_int (2100 + Random.State.int rng 100) }
  in
  let last, count =
    if count > keep then (Engine.Delete_subtree { node = n0 }, count - 1)
    else (Engine.Update_value { node = book () + 5; value = Printf.sprintf "Writer%d" i }, count)
  in
  ([ insert; title; year; last ], count)

let apply doc ops = List.fold_left mutate doc ops

(* The document after [batches], built in one pass from the corpus tree
   and the surviving writer books rather than one Doc rebuild per op:
   the write-mix reference for thousands of acknowledged ops. Agrees
   with applying the ops through Doc (checked in [reader_queries]). *)
let after_batches ~n0 tree batches =
  let module T = Xdm.Xml_tree in
  let set_text v = function T.Element e -> T.Element { e with children = [ T.Text v ] } | t -> t in
  let update j off value books =
    List.mapi
      (fun k b ->
        match b with
        | T.Element ({ children = [ title; author ]; _ } as e) when k = j -> (
            match off with
            | 1 -> T.Element { e with attrs = [ ("year", value) ] }
            | 3 -> T.Element { e with children = [ set_text value title; author ] }
            | _ -> T.Element { e with children = [ title; set_text value author ] })
        | b -> b)
      books
  in
  let step books (op : Engine.mutation) =
    match op with
    | Engine.Insert_subtree { xml; _ } -> books @ [ T.parse xml ]
    | Engine.Delete_subtree { node } ->
        List.filteri (fun k _ -> k <> (node - n0) / book_nodes) books
    | Engine.Update_value { node; value } ->
        update ((node - n0) / book_nodes) ((node - n0) mod book_nodes) value books
  in
  let books = List.fold_left (List.fold_left step) [] batches in
  match tree with
  | T.Element e -> Doc.of_tree ~name:"bib" (T.Element { e with children = e.children @ books })
  | T.Text _ -> invalid_arg "after_batches: the corpus root is an element"

(* The writer-book layout [batch] assumes, checked on a real document. *)
let check_layout ~n0 ~count doc =
  let books =
    List.filter (fun h -> h >= n0) (Doc.children doc (Doc.root doc))
  in
  if books <> List.init count (fun j -> n0 + (book_nodes * j))
     || Doc.size doc <> n0 + (book_nodes * count)
  then setup_fail "write-mix batches do not keep the writer-book layout"

(* The write-mix reader's queries: shapes whose answers no writer batch
   changes, in both spellings. *)
let reader_queries tree seed =
  let doc = Doc.of_tree ~name:"bib" tree in
  let rng = Random.State.make [| seed; 3 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let year = pick (book_values doc "@year") in
  let author = pick (book_values doc "author") in
  let qs =
    List.concat_map
      (fun s -> [ make_query doc s Nested; make_query doc s Conj ])
      [ Scan_thesis; Year year; Author author ]
  in
  (* Check the layout and the invariance the write mix relies on. *)
  let n0 = Doc.size doc in
  let d = ref doc and count = ref 0 and batches = ref [] in
  for i = 1 to 3 * keep do
    let ops, c = batch ~seed ~n0 ~count:!count i in
    d := apply !d ops;
    count := c;
    batches := ops :: !batches;
    check_layout ~n0 ~count:c !d;
    let content d = Doc.content d (Doc.root d) in
    if content (after_batches ~n0 tree (List.rev !batches)) <> content !d then
      setup_fail "the write-mix reference model disagrees with Doc"
  done;
  List.iter
    (fun q ->
      if oracle !d q.q_text <> q.q_oracle then
        setup_fail "reader query is not invariant under the write mix: %s" q.q_text)
    qs;
  Array.of_list qs

(* The cold-open queries: one per shape and spelling, answered against
   the document after the WAL tail. *)
let cold_queries doc seed =
  let rng = Random.State.make [| seed; 4 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  Array.of_list
    (List.concat_map
       (fun s -> [ make_query doc s Nested; make_query doc s Conj ])
       [ Scan_titles;
         Scan_thesis;
         Year (pick (book_values doc "@year"));
         Author (pick (book_values doc "author"));
         Title (pick (book_values doc "title")) ])

(* The WAL tail cold-open replays: the first K/2 records of the write
   mix, in batches. *)
let cold_tail ~seed doc =
  let n0 = Doc.size doc in
  let rec go i count acc =
    if List.length (List.concat acc) >= cold_tail_records then List.rev acc
    else
      let ops, count = batch ~seed ~n0 ~count i in
      go (i + 1) count (ops :: acc)
  in
  let tail = go 1 0 [] in
  (tail, List.fold_left apply doc tail)
