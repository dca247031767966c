(* Synthetic workload generators for the benchmark harness: inputs large
   enough to exercise the evaluators the way the paper's 1800-line grammar
   and real Pascal programs exercised the original. *)

(* An AG source with [n] chained productions — input for the translator
   generated from linguist.ag (syntactically valid, semantically clean).
   [edits] overlays production [i]'s literal constant with [c] for each
   [(i, c)] (default 1): the incremental benchmark's way of applying a
   small, localized source edit without disturbing anything else. *)
let synthetic_ag ?(edits = []) n =
  let buf = Buffer.create (n * 96) in
  Buffer.add_string buf "grammar Big;\nroot a0;\nterminals T; end\nnonterminals\n";
  for i = 0 to n do
    Buffer.add_string buf (Printf.sprintf "  a%d has syn X : t, inh D : t;\n" i)
  done;
  Buffer.add_string buf "end\nlimbs\n";
  for i = 0 to n do
    Buffer.add_string buf (Printf.sprintf "  L%d has TMP : t;\n" i)
  done;
  Buffer.add_string buf "end\nproductions\n";
  for i = 0 to n - 1 do
    let c = Option.value ~default:1 (List.assoc_opt i edits) in
    Buffer.add_string buf
      (Printf.sprintf
         "  a%d ::= a%d -> L%d :\n    L%d.TMP = a%d.D + %d,\n    a%d.D = TMP,\n    a%d.X = a%d.X + TMP;\n"
         i (i + 1) i i i c (i + 1) i (i + 1))
  done;
  Buffer.add_string buf
    (Printf.sprintf "  a%d ::= T -> L%d :\n    L%d.TMP = 0,\n    a%d.X = a%d.D;\nend\n" n n n n n);
  Buffer.contents buf

(* A Pascal-subset program with roughly [n] statements. *)
let synthetic_pascal = Lg_languages.Pascal_ag.synthetic_program

(* A desk-calculator program with [n] statements. *)
let synthetic_calc n =
  let buf = Buffer.create (n * 24) in
  Buffer.add_string buf "a := 1;\nb := 2;\n";
  for i = 1 to n do
    if i mod 5 = 0 then Buffer.add_string buf "print a + b;\n"
    else
      Buffer.add_string buf
        (Printf.sprintf "%s := a + b - %d;\n"
           (if i mod 2 = 0 then "a" else "b")
           (i mod 11))
  done;
  Buffer.contents buf

(* A deep right-leaning binary literal for the Knuth grammar. *)
let synthetic_binary n =
  String.init n (fun i -> if i mod 3 = 0 then '1' else '0')
