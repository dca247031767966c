(* Tests for the demonstration languages: Knuth binary numbers, the desk
   calculator, the Pascal-subset compiler (AG vs hand-written baseline),
   and the stack machine substrate. *)
open Lg_support
open Lg_languages

(* ----- stack machine ----- *)

let prog items = Value.List items
let ins op = Value.Term (op, [])
let push n = Value.Term ("Push", [ Value.Int n ])

let test_machine_arith () =
  let p = prog [ push 6; push 7; ins "Mul"; ins "Writeln" ] in
  Alcotest.(check (list int)) "6*7" [ 42 ] (Stack_machine.run p).Stack_machine.output;
  let p = prog [ push 10; push 3; ins "Sub"; ins "Writeln" ] in
  Alcotest.(check (list int)) "10-3" [ 7 ] (Stack_machine.run p).Stack_machine.output

let test_machine_compare_and_not () =
  let out p = (Stack_machine.run p).Stack_machine.output in
  Alcotest.(check (list int)) "1<2" [ 1 ]
    (out (prog [ push 1; push 2; ins "Lt"; ins "Writeln" ]));
  Alcotest.(check (list int)) "2>2" [ 0 ]
    (out (prog [ push 2; push 2; ins "Gt"; ins "Writeln" ]));
  Alcotest.(check (list int)) "3=3" [ 1 ]
    (out (prog [ push 3; push 3; ins "Eq"; ins "Writeln" ]));
  Alcotest.(check (list int)) "not 0" [ 1 ]
    (out (prog [ push 0; ins "Not"; ins "Writeln" ]))

let test_machine_store_load () =
  let x = Value.Name 1 in
  let p =
    prog
      [
        push 5;
        Value.Term ("Store", [ x ]);
        Value.Term ("Load", [ x ]);
        Value.Term ("Load", [ x ]);
        ins "Add";
        ins "Writeln";
      ]
  in
  Alcotest.(check (list int)) "x+x" [ 10 ] (Stack_machine.run p).Stack_machine.output

let test_machine_jumps () =
  (* JmpF skipping a Writeln *)
  let p = prog [ push 0; Value.Term ("JmpF", [ Value.Int 2 ]); push 1; ins "Writeln"; push 9; ins "Writeln" ] in
  Alcotest.(check (list int)) "jmpf taken" [ 9 ]
    (Stack_machine.run p).Stack_machine.output;
  let p = prog [ push 1; Value.Term ("JmpF", [ Value.Int 2 ]); push 1; ins "Writeln"; push 9; ins "Writeln" ] in
  Alcotest.(check (list int)) "jmpf not taken" [ 1; 9 ]
    (Stack_machine.run p).Stack_machine.output

let test_machine_fuel () =
  (* Jmp(-1) loops forever: Jmp k jumps relative to the next pc. *)
  let p = prog [ Value.Term ("Jmp", [ Value.Int (-1) ]) ] in
  match Stack_machine.run ~fuel:100 p with
  | exception Stack_machine.Stuck _ -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_machine_stuck_cases () =
  let stuck p =
    match Stack_machine.run p with
    | exception Stack_machine.Stuck _ -> ()
    | _ -> Alcotest.fail "expected Stuck"
  in
  stuck (Value.Int 3);
  stuck (prog [ ins "Add" ]);
  stuck (prog [ ins "Frobnicate" ]);
  stuck (prog [ Value.Int 3 ]);
  stuck (prog [ push 1; Value.Term ("Jmp", [ Value.Int 99 ]) ])

let test_machine_disassemble () =
  let text = Stack_machine.disassemble (prog [ push 3; ins "Writeln" ]) in
  Alcotest.(check bool) "numbered lines" true
    (Fixtures.contains_substring ~needle:"0  Push(3)" text);
  Alcotest.(check int) "count" 2
    (Stack_machine.instruction_count (prog [ push 3; ins "Writeln" ]))

(* ----- Knuth binary ----- *)

let prop_knuth_matches_arithmetic =
  QCheck.Test.make ~name:"knuth AG = direct arithmetic" ~count:60
    (QCheck.make
       ~print:(fun s -> s)
       QCheck.Gen.(
         let bits n = string_size ~gen:(char_range '0' '1') (int_range 1 n) in
         oneof
           [
             bits 10;
             map2 (fun a b -> a ^ "." ^ b) (bits 8) (bits 8);
           ]))
    (fun s ->
      abs_float (Knuth_binary.value s -. Knuth_binary.expected s) < 1e-9)

let test_knuth_examples () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check int) s expect (Knuth_binary.fixed_value s))
    [
      ("0", 0);
      ("1", 65536);
      ("101", 5 * 65536);
      ("0.1", 32768);
      ("110.01", (6 * 65536) + 16384);
    ]

(* ----- desk calculator ----- *)

let test_desk_calc_examples () =
  let t = Desk_calc.translator () in
  List.iter
    (fun (src, printed, errors) ->
      let got = Desk_calc.run ~translator:t src in
      Alcotest.(check (list int)) src printed got.Desk_calc.printed;
      Alcotest.(check (list (pair int string))) (src ^ " errors") errors
        got.Desk_calc.errors)
    [
      ("print 1 + 2;", [ 3 ], []);
      ("x := 4; print x - 1; print x + x;", [ 3; 8 ], []);
      ("x := 1; x := x + 1; x := x + x; print x;", [ 4 ], []);
      ("print nope;", [ 0 ], [ (1, "nope") ]);
      ("x := y + 1;\nprint x;", [ 1 ], [ (1, "y") ]);
      ("print (1 + 2) - (3 - 4);", [ 4 ], []);
    ]

(* Random calculator programs compared against the hand interpreter. *)
let gen_calc_program =
  QCheck.Gen.(
    let var = map (fun i -> Printf.sprintf "v%d" i) (int_bound 3) in
    let rec expr depth =
      if depth = 0 then
        oneof [ map string_of_int (int_bound 50); var ]
      else
        frequency
          [
            (2, expr 0);
            ( 2,
              map2 (fun a b -> Printf.sprintf "%s + %s" a b) (expr (depth - 1))
                (expr (depth - 1)) );
            ( 2,
              map2 (fun a b -> Printf.sprintf "%s - %s" a b) (expr (depth - 1))
                (expr (depth - 1)) );
            (1, map (fun a -> Printf.sprintf "(%s)" a) (expr (depth - 1)));
          ]
    in
    let stmt =
      oneof
        [
          map2 (fun v e -> Printf.sprintf "%s := %s;" v e) var (expr 2);
          map (fun e -> Printf.sprintf "print %s;" e) (expr 2);
        ]
    in
    map (String.concat "\n") (list_size (int_range 1 12) stmt))

let prop_desk_calc_matches_reference =
  let translator = lazy (Desk_calc.translator ()) in
  QCheck.Test.make ~name:"desk calc AG = hand interpreter" ~count:60
    (QCheck.make ~print:(fun s -> s) gen_calc_program)
    (fun src ->
      let got = Desk_calc.run ~translator:(Lazy.force translator) src in
      let want = Desk_calc.reference src in
      got.Desk_calc.printed = want.Desk_calc.printed
      && got.Desk_calc.errors = want.Desk_calc.errors)

(* ----- Pascal subset ----- *)

let pascal_programs =
  [
    ( "factorial",
      {|
program fact;
var n : integer; acc : integer;
begin
  n := 6; acc := 1;
  while n > 0 do begin acc := acc * n; n := n - 1 end;
  writeln(acc)
end.
|},
      [ 720 ] );
    ( "fibonacci",
      {|
program fib;
var a : integer; b : integer; t : integer; i : integer;
begin
  a := 0; b := 1; i := 0;
  while i < 10 do begin t := a + b; a := b; b := t; i := i + 1 end;
  writeln(a)
end.
|},
      [ 55 ] );
    ( "nested ifs and booleans",
      {|
program branches;
var x : integer; flag : boolean;
begin
  x := 3;
  flag := x < 5;
  if flag then
    if x = 3 then writeln(30) else writeln(31)
  else writeln(40);
  if not flag then writeln(50) else writeln(51)
end.
|},
      [ 30; 51 ] );
    ( "no declarations",
      {|
program short;
begin
  writeln(2 * 3 * 7)
end.
|},
      [ 42 ] );
    ( "comments and shadow-free scoping",
      {|
program c;
var x : integer; { a comment }
begin
  x := 1 + 2 * 3; { another }
  writeln(x)
end.
|},
      [ 7 ] );
  ]

let test_pascal_programs () =
  let t = Pascal_ag.translator () in
  List.iter
    (fun (name, src, expect) ->
      let out = Pascal_ag.run_program ~translator:t src in
      Alcotest.(check (list int)) name expect out.Stack_machine.output)
    pascal_programs

let test_pascal_equals_baseline () =
  let t = Pascal_ag.translator () in
  List.iter
    (fun (name, src, _) ->
      let ag = Pascal_ag.compile ~translator:t src in
      let hand = Lg_baseline.Hand_pascal.compile src in
      Alcotest.(check int)
        (name ^ ": same instruction count")
        (Stack_machine.instruction_count hand.Lg_baseline.Hand_pascal.code)
        (Stack_machine.instruction_count ag.Pascal_ag.code);
      let out_ag = Stack_machine.run ag.Pascal_ag.code in
      let out_hand = Stack_machine.run hand.Lg_baseline.Hand_pascal.code in
      Alcotest.(check (list int))
        (name ^ ": same output")
        out_hand.Stack_machine.output out_ag.Stack_machine.output)
    pascal_programs

let test_pascal_type_errors () =
  let t = Pascal_ag.translator () in
  let tags src =
    (Pascal_ag.compile ~translator:t src).Pascal_ag.messages
    |> List.map (fun (_, tag, _) -> tag)
  in
  let check_has src tag =
    Alcotest.(check bool)
      (tag ^ " reported")
      true
      (List.mem tag (tags src))
  in
  check_has
    "program p; var x : integer; begin x := true end."
    "AssignmentTypeMismatch";
  check_has "program p; begin y := 1 end." "UndeclaredVariable";
  check_has
    "program p; var x : integer; x : integer; begin x := 1 end."
    "DuplicateDeclaration";
  check_has
    "program p; var x : integer; begin if x then writeln(1) else writeln(2) end."
    "ConditionNotBoolean";
  check_has
    "program p; var x : integer; begin while x + 1 do x := x end."
    "ConditionNotBoolean";
  check_has "program p; begin writeln(true) end." "WritelnNeedsInteger";
  check_has
    "program p; var b : boolean; begin b := true; b := not (1 + 2) end."
    "NotNeedsBoolean";
  check_has
    "program p; var b : boolean; begin b := true < false end."
    "ComparisonNeedsIntegers";
  check_has
    "program p; var b : boolean; begin b := 1 = true end."
    "ComparisonTypeMismatch";
  check_has
    "program p; var b : boolean; begin b := true + 1 end."
    "ArithmeticNeedsIntegers"

(* The list package keeps translation linear: the Pascal AG builds its
   code with left-recursive Append, and a program 4x larger must cost at
   most ~4.6x the minor-heap words (a copying Append costs ~8x). An
   allocation counter, not a clock, so the gate is machine-independent. *)
let test_pascal_linear_allocation () =
  let t = Pascal_ag.translator () in
  let words n =
    let program = Pascal_ag.synthetic_program n in
    let before = Gc.minor_words () in
    let compiled = Pascal_ag.compile ~translator:t program in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int)
      (Printf.sprintf "n = %d compiles cleanly" n)
      0
      (List.length compiled.Pascal_ag.messages);
    words
  in
  ignore (words 50);
  let ratio = words 4000 /. words 1000 in
  if ratio > 4.6 then
    Alcotest.failf "minor words grow %.2fx from n = 1000 to 4000 (limit 4.6)"
      ratio

let test_pascal_errors_match_baseline () =
  let t = Pascal_ag.translator () in
  List.iter
    (fun src ->
      let ag =
        (Pascal_ag.compile ~translator:t src).Pascal_ag.messages
        |> List.map (fun (l, tag, _) -> (l, tag))
        |> List.sort compare
      in
      let hand =
        (Lg_baseline.Hand_pascal.compile src).Lg_baseline.Hand_pascal.messages
        |> List.map (fun (m : Lg_baseline.Hand_pascal.message) ->
               (m.Lg_baseline.Hand_pascal.line, m.Lg_baseline.Hand_pascal.tag))
        |> List.sort compare
      in
      Alcotest.(check (list (pair int string))) src hand ag)
    [
      "program p; begin y := 1 end.";
      "program p;\nvar x : integer;\nbegin\n  x := true;\n  writeln(x)\nend.";
      "program p; var x : integer; x : boolean; begin x := true end.";
    ]

let gen_pascal_program =
  (* Random straight-line integer programs (declared variables only, no
     control flow) — a differential fuzz of expressions and assignments. *)
  QCheck.Gen.(
    let var = map (fun i -> Printf.sprintf "v%d" i) (int_bound 2) in
    let rec expr depth =
      if depth = 0 then oneof [ map string_of_int (int_bound 20); var ]
      else
        oneof
          [
            expr 0;
            map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) (expr (depth - 1)) (expr (depth - 1));
            map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) (expr (depth - 1)) (expr (depth - 1));
            map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) (expr (depth - 1)) (expr (depth - 1));
          ]
    in
    let stmt =
      oneof
        [
          map2 (fun v e -> Printf.sprintf "%s := %s" v e) var (expr 2);
          map (fun e -> Printf.sprintf "writeln(%s)" e) (expr 2);
        ]
    in
    map
      (fun stmts ->
        Printf.sprintf
          "program r;\nvar v0 : integer; v1 : integer; v2 : integer;\nbegin\n  %s\nend.\n"
          (String.concat ";\n  " stmts))
      (list_size (int_range 1 10) stmt))

let prop_pascal_matches_baseline =
  let translator = lazy (Pascal_ag.translator ()) in
  QCheck.Test.make ~name:"pascal AG = baseline on random programs" ~count:40
    (QCheck.make ~print:(fun s -> s) gen_pascal_program)
    (fun src ->
      let ag = Pascal_ag.compile ~translator:(Lazy.force translator) src in
      let hand = Lg_baseline.Hand_pascal.compile src in
      ag.Pascal_ag.messages = [] && hand.Lg_baseline.Hand_pascal.messages = []
      && (Stack_machine.run ag.Pascal_ag.code).Stack_machine.output
         = (Stack_machine.run hand.Lg_baseline.Hand_pascal.code).Stack_machine.output)

(* ----- assembler ----- *)

let asm_translator = lazy (Assembler.translator ())

let test_assembler_passes () =
  let t = Lazy.force asm_translator in
  let plan = Linguist.Translator.plan t in
  Alcotest.(check int) "three alternating passes" 3
    plan.Linguist.Plan.passes.Linguist.Pass_assign.n_passes

let test_assembler_programs () =
  let t = Lazy.force asm_translator in
  List.iter
    (fun (name, src, expect) ->
      let out = Assembler.run ~translator:t src in
      Alcotest.(check (list int)) name expect out.Stack_machine.output)
    [
      ("straight line", "push 2\npush 3\nadd\nout\n", [ 5 ]);
      ( "backward reference",
        "push 0\nstore i\nloop: load i\npush 1\nadd\nstore i\nload i\npush 4\nlt\njt loop\nload i\nout\n",
        [ 4 ] );
      ( "forward reference",
        "push 1\njf skip\npush 7\nout\nskip: push 9\nout\n",
        [ 7; 9 ] );
      ( "forward jf taken",
        "push 0\njf skip\npush 7\nout\nskip: push 9\nout\n",
        [ 9 ] );
      ( "jt over two-instruction gap",
        "push 1\njt over\nout\nover: push 3\nout\n",
        [ 3 ] );
    ]

let test_assembler_errors () =
  let t = Lazy.force asm_translator in
  let tags src =
    (Assembler.assemble ~translator:t src).Assembler.messages
    |> List.map (fun (_, tag, name) -> (tag, name))
  in
  Alcotest.(check (list (pair string string))) "undefined label"
    [ ("UndefinedLabel", "nowhere") ]
    (tags "jmp nowhere\n");
  Alcotest.(check (list (pair string string))) "duplicate label"
    [ ("DuplicateLabel", "l") ]
    (tags "l: push 1\nl: push 2\nout\nout\n")

let gen_asm_program =
  QCheck.Gen.(
    let label i = Printf.sprintf "l%d" i in
    (* Structured generation: N blocks, each labelled, each ending with a
       bounded loop guard or a forward jump, so programs terminate. *)
    int_range 2 6 >>= fun blocks ->
    let block i =
      let plain =
        [
          Printf.sprintf "%s: push %d\n  out\n" (label i) i;
          Printf.sprintf "%s: push %d\n  store x\n  load x\n  out\n" (label i) (i * 3);
        ]
      in
      (* only forward jumps, so every generated program terminates *)
      let jumping =
        if i + 1 < blocks then
          let dest = label (i + 1) in
          [
            Printf.sprintf "%s: push 0\n  jf %s\n  push 99\n  out\n" (label i) dest;
            Printf.sprintf "%s: push 1\n  jt %s\n  push 98\n  out\n" (label i) dest;
          ]
        else []
      in
      oneofl (plain @ jumping)
    in
    let rec all i =
      if i >= blocks then return []
      else block i >>= fun b -> all (i + 1) >>= fun rest -> return (b :: rest)
    in
    map (String.concat "") (all 0))

let prop_assembler_matches_reference =
  QCheck.Test.make ~name:"assembler AG = two-pass reference" ~count:50
    (QCheck.make ~print:(fun s -> s) gen_asm_program)
    (fun src ->
      let t = Lazy.force asm_translator in
      let ag = Assembler.assemble ~translator:t src in
      let ref_ = Assembler.reference src in
      ag.Assembler.messages = ref_.Assembler.messages
      && (Stack_machine.run ag.Assembler.code).Stack_machine.output
         = (Stack_machine.run ref_.Assembler.code).Stack_machine.output)

let () =
  Alcotest.run "languages"
    [
      ( "stack machine",
        [
          Alcotest.test_case "arithmetic" `Quick test_machine_arith;
          Alcotest.test_case "compare/not" `Quick test_machine_compare_and_not;
          Alcotest.test_case "store/load" `Quick test_machine_store_load;
          Alcotest.test_case "jumps" `Quick test_machine_jumps;
          Alcotest.test_case "fuel" `Quick test_machine_fuel;
          Alcotest.test_case "stuck cases" `Quick test_machine_stuck_cases;
          Alcotest.test_case "disassemble" `Quick test_machine_disassemble;
        ] );
      ( "knuth",
        [
          Alcotest.test_case "examples" `Quick test_knuth_examples;
          QCheck_alcotest.to_alcotest prop_knuth_matches_arithmetic;
        ] );
      ( "desk calc",
        [
          Alcotest.test_case "examples" `Quick test_desk_calc_examples;
          QCheck_alcotest.to_alcotest prop_desk_calc_matches_reference;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "three passes" `Quick test_assembler_passes;
          Alcotest.test_case "programs" `Quick test_assembler_programs;
          Alcotest.test_case "errors" `Quick test_assembler_errors;
          QCheck_alcotest.to_alcotest prop_assembler_matches_reference;
        ] );
      ( "pascal",
        [
          Alcotest.test_case "programs" `Quick test_pascal_programs;
          Alcotest.test_case "equals baseline" `Quick test_pascal_equals_baseline;
          Alcotest.test_case "type errors" `Quick test_pascal_type_errors;
          Alcotest.test_case "errors match baseline" `Quick
            test_pascal_errors_match_baseline;
          QCheck_alcotest.to_alcotest prop_pascal_matches_baseline;
          Alcotest.test_case "linear allocation" `Quick
            test_pascal_linear_allocation;
        ] );
    ]
