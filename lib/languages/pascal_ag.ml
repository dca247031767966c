open Lg_support

let ag_source =
  {|# A Pascal subset: declarations, statements, typed expressions, and
# code generation for the stack machine. Two alternating passes: the
# symbol table rises in pass 1 and is distributed left-to-right in pass 2.
grammar PascalSubset;
root program;
strategy bottom_up;

terminals
  ID has intrinsic NAME : name, intrinsic LINE : int;
  NUM has intrinsic LEXVAL : int, intrinsic LINE : int;
  TRUE_T has intrinsic LINE : int;
  FALSE_T has intrinsic LINE : int;
  PROGRAM_T; VAR_T; BEGIN_T; END_T; IF_T; THEN_T; ELSE_T; WHILE_T; DO_T;
  WRITELN_T; INTEGER_T; BOOLEAN_T; NOT_T;
  SEMI; COLON; DOT; ASSIGN; PLUS; MINUS; STAR; LT_T; GT_T; EQ_T; LPAR; RPAR;
end

nonterminals
  program has syn CODE : list, syn MSGS : list;
  block has syn CODE : list, syn MSGS : list;
  decls has syn TYPS : env, syn MSGS : list;
  decl has syn DNAME : name, syn DTYP : name, syn DLINE : int, syn MSGS : list;
  type has syn DTYP : name;
  stmts has inh SYMS : env, syn CODE : list, syn MSGS : list;
  stmt has inh SYMS : env, syn CODE : list, syn MSGS : list;
  expr has inh SYMS : env, syn TYP : name, syn CODE : list, syn MSGS : list, syn LINE : int;
  simple has inh SYMS : env, syn TYP : name, syn CODE : list, syn MSGS : list, syn LINE : int;
  term has inh SYMS : env, syn TYP : name, syn CODE : list, syn MSGS : list, syn LINE : int;
  factor has inh SYMS : env, syn TYP : name, syn CODE : list, syn MSGS : list, syn LINE : int;
end

limbs
  ProgramLimb;
  BlockDeclLimb;
  BlockLimb;
  DeclSeqLimb has OLD : name;
  DeclOneLimb;
  DeclLimb;
  TypeIntLimb;
  TypeBoolLimb;
  StmtSeqLimb;
  StmtOneLimb;
  AssignLimb has VARTYP : name;
  IfLimb has THENLEN : int, ELSELEN : int;
  WhileLimb has CONDLEN : int, BODYLEN : int;
  GroupLimb;
  WriteLimb;
  LtLimb; GtLimb; EqLimb;
  ExprSimpleLimb;
  AddLimb; SubLimb;
  SimpleTermLimb;
  MulLimb;
  TermFactorLimb;
  NumLimb;
  VarLimb has VT : name;
  TrueLimb; FalseLimb;
  ParenLimb;
  NotLimb;
end

productions
  program ::= PROGRAM_T ID SEMI block DOT -> ProgramLimb ;
    # CODE, MSGS rise implicitly from block

  block ::= VAR_T decls BEGIN_T stmts END_T -> BlockDeclLimb :
    stmts.SYMS = decls.TYPS,
    block.MSGS = MergeMsgs(decls.MSGS, stmts.MSGS);
    # block.CODE = stmts.CODE implicit

  block ::= BEGIN_T stmts END_T -> BlockLimb :
    stmts.SYMS = NullPF;

  decls0 ::= decls1 decl -> DeclSeqLimb :
    DeclSeqLimb.OLD = EvalPF(decls1.TYPS, decl.DNAME),
    decls0.TYPS = ConsPF(decl.DNAME, decl.DTYP, decls1.TYPS),
    decls0.MSGS =
      if OLD = Bottom then MergeMsgs(decls1.MSGS, decl.MSGS)
      else ConsMsg(decl.DLINE, DuplicateDeclaration, decl.DNAME,
                   MergeMsgs(decls1.MSGS, decl.MSGS)) endif;

  decls ::= decl -> DeclOneLimb :
    decls.TYPS = ConsPF(decl.DNAME, decl.DTYP, NullPF);
    # decls.MSGS implicit

  decl ::= ID COLON type SEMI -> DeclLimb :
    decl.DNAME = ID.NAME,
    decl.DLINE = ID.LINE,
    decl.MSGS = NullMsgList;
    # decl.DTYP = type.DTYP implicit

  type ::= INTEGER_T -> TypeIntLimb :
    type.DTYP = TInt;

  type ::= BOOLEAN_T -> TypeBoolLimb :
    type.DTYP = TBool;

  stmts0 ::= stmts1 SEMI stmt -> StmtSeqLimb :
    stmts0.CODE = Append(stmts1.CODE, stmt.CODE),
    stmts0.MSGS = MergeMsgs(stmts1.MSGS, stmt.MSGS);

  stmts ::= stmt -> StmtOneLimb ;

  stmt ::= ID ASSIGN expr -> AssignLimb :
    AssignLimb.VARTYP = EvalPF(stmt.SYMS, ID.NAME),
    stmt.CODE = Append(expr.CODE, Cons(Store(ID.NAME), NullList)),
    stmt.MSGS =
      if VARTYP = Bottom
      then ConsMsg(ID.LINE, UndeclaredVariable, ID.NAME, expr.MSGS)
      elsif VARTYP <> expr.TYP and expr.TYP <> TErr
      then ConsMsg(ID.LINE, AssignmentTypeMismatch, ID.NAME, expr.MSGS)
      else expr.MSGS endif;

  stmt0 ::= IF_T expr THEN_T stmt1 ELSE_T stmt2 -> IfLimb :
    IfLimb.THENLEN = LengthOf(stmt1.CODE),
    IfLimb.ELSELEN = LengthOf(stmt2.CODE),
    stmt0.CODE =
      Append(expr.CODE,
             Cons(JmpF(THENLEN + 1),
                  Append(stmt1.CODE, Cons(Jmp(ELSELEN), stmt2.CODE)))),
    stmt0.MSGS =
      if expr.TYP <> TBool and expr.TYP <> TErr
      then ConsMsg(expr.LINE, ConditionNotBoolean, NullName,
                   MergeMsgs(expr.MSGS, MergeMsgs(stmt1.MSGS, stmt2.MSGS)))
      else MergeMsgs(expr.MSGS, MergeMsgs(stmt1.MSGS, stmt2.MSGS)) endif;

  stmt0 ::= WHILE_T expr DO_T stmt1 -> WhileLimb :
    WhileLimb.CONDLEN = LengthOf(expr.CODE),
    WhileLimb.BODYLEN = LengthOf(stmt1.CODE),
    stmt0.CODE =
      Append(expr.CODE,
             Cons(JmpF(BODYLEN + 1),
                  Append(stmt1.CODE,
                         Cons(Jmp(0 - (CONDLEN + BODYLEN + 2)), NullList)))),
    stmt0.MSGS =
      if expr.TYP <> TBool and expr.TYP <> TErr
      then ConsMsg(expr.LINE, ConditionNotBoolean, NullName,
                   MergeMsgs(expr.MSGS, stmt1.MSGS))
      else MergeMsgs(expr.MSGS, stmt1.MSGS) endif;

  stmt ::= BEGIN_T stmts END_T -> GroupLimb ;

  stmt ::= WRITELN_T LPAR expr RPAR -> WriteLimb :
    stmt.CODE = Append(expr.CODE, Cons(Writeln, NullList)),
    stmt.MSGS =
      if expr.TYP = TBool
      then ConsMsg(expr.LINE, WritelnNeedsInteger, NullName, expr.MSGS)
      else expr.MSGS endif;

  expr ::= simple0 LT_T simple1 -> LtLimb :
    expr.TYP =
      if simple0.TYP = TErr or simple1.TYP = TErr then TErr
      elsif simple0.TYP = TInt and simple1.TYP = TInt then TBool
      else TErr endif,
    expr.CODE = Append(simple0.CODE, Append(simple1.CODE, Cons(Lt, NullList))),
    expr.LINE = simple0.LINE,
    expr.MSGS =
      if simple0.TYP = TErr or simple1.TYP = TErr
         or (simple0.TYP = TInt and simple1.TYP = TInt)
      then MergeMsgs(simple0.MSGS, simple1.MSGS)
      else ConsMsg(simple0.LINE, ComparisonNeedsIntegers, NullName,
                   MergeMsgs(simple0.MSGS, simple1.MSGS)) endif;

  expr ::= simple0 GT_T simple1 -> GtLimb :
    expr.TYP =
      if simple0.TYP = TErr or simple1.TYP = TErr then TErr
      elsif simple0.TYP = TInt and simple1.TYP = TInt then TBool
      else TErr endif,
    expr.CODE = Append(simple0.CODE, Append(simple1.CODE, Cons(Gt, NullList))),
    expr.LINE = simple0.LINE,
    expr.MSGS =
      if simple0.TYP = TErr or simple1.TYP = TErr
         or (simple0.TYP = TInt and simple1.TYP = TInt)
      then MergeMsgs(simple0.MSGS, simple1.MSGS)
      else ConsMsg(simple0.LINE, ComparisonNeedsIntegers, NullName,
                   MergeMsgs(simple0.MSGS, simple1.MSGS)) endif;

  expr ::= simple0 EQ_T simple1 -> EqLimb :
    expr.TYP =
      if simple0.TYP = TErr or simple1.TYP = TErr then TErr
      elsif simple0.TYP = simple1.TYP then TBool
      else TErr endif,
    expr.CODE = Append(simple0.CODE, Append(simple1.CODE, Cons(Eq, NullList))),
    expr.LINE = simple0.LINE,
    expr.MSGS =
      if simple0.TYP = TErr or simple1.TYP = TErr
         or simple0.TYP = simple1.TYP
      then MergeMsgs(simple0.MSGS, simple1.MSGS)
      else ConsMsg(simple0.LINE, ComparisonTypeMismatch, NullName,
                   MergeMsgs(simple0.MSGS, simple1.MSGS)) endif;

  expr ::= simple -> ExprSimpleLimb ;

  simple0 ::= simple1 PLUS term -> AddLimb :
    simple0.TYP =
      if simple1.TYP = TErr or term.TYP = TErr then TErr
      elsif simple1.TYP = TInt and term.TYP = TInt then TInt
      else TErr endif,
    simple0.CODE = Append(simple1.CODE, Append(term.CODE, Cons(Add, NullList))),
    simple0.LINE = simple1.LINE,
    simple0.MSGS =
      if simple1.TYP = TErr or term.TYP = TErr
         or (simple1.TYP = TInt and term.TYP = TInt)
      then MergeMsgs(simple1.MSGS, term.MSGS)
      else ConsMsg(simple1.LINE, ArithmeticNeedsIntegers, NullName,
                   MergeMsgs(simple1.MSGS, term.MSGS)) endif;

  simple0 ::= simple1 MINUS term -> SubLimb :
    simple0.TYP =
      if simple1.TYP = TErr or term.TYP = TErr then TErr
      elsif simple1.TYP = TInt and term.TYP = TInt then TInt
      else TErr endif,
    simple0.CODE = Append(simple1.CODE, Append(term.CODE, Cons(Sub, NullList))),
    simple0.LINE = simple1.LINE,
    simple0.MSGS =
      if simple1.TYP = TErr or term.TYP = TErr
         or (simple1.TYP = TInt and term.TYP = TInt)
      then MergeMsgs(simple1.MSGS, term.MSGS)
      else ConsMsg(simple1.LINE, ArithmeticNeedsIntegers, NullName,
                   MergeMsgs(simple1.MSGS, term.MSGS)) endif;

  simple ::= term -> SimpleTermLimb ;

  term0 ::= term1 STAR factor -> MulLimb :
    term0.TYP =
      if term1.TYP = TErr or factor.TYP = TErr then TErr
      elsif term1.TYP = TInt and factor.TYP = TInt then TInt
      else TErr endif,
    term0.CODE = Append(term1.CODE, Append(factor.CODE, Cons(Mul, NullList))),
    term0.LINE = term1.LINE,
    term0.MSGS =
      if term1.TYP = TErr or factor.TYP = TErr
         or (term1.TYP = TInt and factor.TYP = TInt)
      then MergeMsgs(term1.MSGS, factor.MSGS)
      else ConsMsg(term1.LINE, ArithmeticNeedsIntegers, NullName,
                   MergeMsgs(term1.MSGS, factor.MSGS)) endif;

  term ::= factor -> TermFactorLimb ;

  factor ::= NUM -> NumLimb :
    factor.TYP = TInt,
    factor.CODE = Cons(Push(NUM.LEXVAL), NullList),
    factor.MSGS = NullMsgList;
    # factor.LINE = NUM.LINE implicit

  factor ::= ID -> VarLimb :
    VarLimb.VT = EvalPF(factor.SYMS, ID.NAME),
    factor.TYP = if VT = Bottom then TErr else VT endif,
    factor.CODE = Cons(Load(ID.NAME), NullList),
    factor.MSGS =
      if VT = Bottom
      then ConsMsg(ID.LINE, UndeclaredVariable, ID.NAME, NullMsgList)
      else NullMsgList endif;

  factor ::= TRUE_T -> TrueLimb :
    factor.TYP = TBool,
    factor.CODE = Cons(Push(1), NullList),
    factor.MSGS = NullMsgList;

  factor ::= FALSE_T -> FalseLimb :
    factor.TYP = TBool,
    factor.CODE = Cons(Push(0), NullList),
    factor.MSGS = NullMsgList;

  factor ::= LPAR expr RPAR -> ParenLimb ;

  factor0 ::= NOT_T factor1 -> NotLimb :
    factor0.TYP =
      if factor1.TYP = TErr then TErr
      elsif factor1.TYP = TBool then TBool
      else TErr endif,
    factor0.CODE = Append(factor1.CODE, Cons(Not, NullList)),
    factor0.MSGS =
      if factor1.TYP = TBool or factor1.TYP = TErr then factor1.MSGS
      else ConsMsg(factor1.LINE, NotNeedsBoolean, NullName, factor1.MSGS) endif;
end
|}

let scanner =
  Lg_scanner.Spec.make
    ~keywords:
      [
        ("program", "PROGRAM_T");
        ("var", "VAR_T");
        ("begin", "BEGIN_T");
        ("end", "END_T");
        ("if", "IF_T");
        ("then", "THEN_T");
        ("else", "ELSE_T");
        ("while", "WHILE_T");
        ("do", "DO_T");
        ("writeln", "WRITELN_T");
        ("integer", "INTEGER_T");
        ("boolean", "BOOLEAN_T");
        ("not", "NOT_T");
        ("true", "TRUE_T");
        ("false", "FALSE_T");
      ]
    ~keyword_rules:[ "ID" ]
    [
      ("WS", "[ \\t\\n]+", Lg_scanner.Spec.Skip);
      ("COMMENT", "{[^}]*}", Lg_scanner.Spec.Skip);
      ("NUM", "[0-9]+", Lg_scanner.Spec.Token);
      ("ID", "[a-z][a-z0-9_]*", Lg_scanner.Spec.Token);
      ("ASSIGN", ":=", Lg_scanner.Spec.Token);
      ("SEMI", ";", Lg_scanner.Spec.Token);
      ("COLON", ":", Lg_scanner.Spec.Token);
      ("DOT", "\\.", Lg_scanner.Spec.Token);
      ("PLUS", "\\+", Lg_scanner.Spec.Token);
      ("MINUS", "-", Lg_scanner.Spec.Token);
      ("STAR", "\\*", Lg_scanner.Spec.Token);
      ("LT_T", "<", Lg_scanner.Spec.Token);
      ("GT_T", ">", Lg_scanner.Spec.Token);
      ("EQ_T", "=", Lg_scanner.Spec.Token);
      ("LPAR", "\\(", Lg_scanner.Spec.Token);
      ("RPAR", "\\)", Lg_scanner.Spec.Token);
    ]

let translator_with ~options () =
  Linguist.Translator.make_exn ~options ~scanner ~ag_source
    ~file:"pascal_subset.ag" ()

let translator () = translator_with ~options:Linguist.Driver.default_options ()

type compiled = {
  code : Value.t;
  messages : (int * string * string) list;
}

let compile ?translator:tr source =
  let t = match tr with Some t -> t | None -> translator () in
  let result = Linguist.Translator.translate_exn t ~file:"<input>" source in
  let code =
    Option.value ~default:(Value.List [])
      (List.assoc_opt "CODE" result.Linguist.Translator.outputs)
  in
  let messages =
    match
      Option.bind
        (List.assoc_opt "MSGS" result.Linguist.Translator.outputs)
        Value.as_list
    with
    | Some items ->
        List.filter_map
          (function
            | Value.Term ("msg", [ Value.Int line; Value.Term (tag, []); name ]) ->
                let name_text =
                  match name with
                  | Value.Name n ->
                      Interner.text (Linguist.Translator.interner t) n
                  | _ -> ""
                in
                Some (line, tag, name_text)
            | _ -> None)
          items
    | None -> []
  in
  { code; messages }

let run_program ?translator source =
  let { code; messages } = compile ?translator source in
  match messages with
  | [] -> Stack_machine.run code
  | (line, tag, name) :: _ ->
      failwith
        (Printf.sprintf "Pascal_ag.run_program: line %d: %s %s" line tag name)

let synthetic_program n =
  let buf = Buffer.create (n * 32) in
  Buffer.add_string buf
    "program big;\nvar x : integer; y : integer; z : integer;\nbegin\n  x := 1;\n  y := 2;\n  z := 0";
  for i = 1 to n do
    match i mod 4 with
    | 0 -> Buffer.add_string buf (Printf.sprintf ";\n  z := z + x * %d - y" (i mod 9))
    | 1 -> Buffer.add_string buf (Printf.sprintf ";\n  x := x + %d" (i mod 7))
    | 2 -> Buffer.add_string buf ";\n  y := y + x - z"
    | _ -> Buffer.add_string buf ";\n  writeln(z)"
  done;
  Buffer.add_string buf "\nend.\n";
  Buffer.contents buf
