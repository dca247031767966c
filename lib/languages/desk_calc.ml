open Lg_support

let ag_source =
  {|# A desk calculator: assignments and prints, env threaded left to right.
grammar DeskCalc;
root program;
strategy bottom_up;

terminals
  ID has intrinsic NAME : name, intrinsic LINE : int;
  NUM has intrinsic LEXVAL : int;
  ASSIGN; PRINT; SEMI; PLUS; MINUS; LPAR; RPAR;
end

nonterminals
  program has syn OUT : list, syn MSGS : list;
  stmts has inh ENV : env, syn ENVOUT : env, syn OUT : list, syn MSGS : list;
  stmt has inh ENV : env, syn ENVOUT : env, syn OUT : list, syn MSGS : list;
  expr has inh ENV : env, syn VAL : int, syn MSGS : list;
  term has inh ENV : env, syn VAL : int, syn MSGS : list;
end

limbs
  ProgLimb;
  SeqLimb;
  OneLimb;
  AsgLimb;
  PrintLimb;
  AddLimb;
  SubLimb;
  TermLimb;
  NumLimb;
  VarLimb has V : int;
  ParLimb;
end

productions
  program ::= stmts -> ProgLimb :
    stmts.ENV = NullPF;
    # program.OUT, program.MSGS arrive via implicit copy-rules

  stmts0 ::= stmts1 stmt -> SeqLimb :
    stmt.ENV = stmts1.ENVOUT,
    stmts0.ENVOUT = stmt.ENVOUT,
    stmts0.OUT = Append(stmts1.OUT, stmt.OUT),
    stmts0.MSGS = MergeMsgs(stmts1.MSGS, stmt.MSGS);
    # stmts1.ENV = stmts0.ENV implicit

  stmts ::= stmt -> OneLimb ;
    # everything implicit: ENV down; ENVOUT, OUT, MSGS up

  stmt ::= ID ASSIGN expr SEMI -> AsgLimb :
    stmt.ENVOUT = ConsPF(ID.NAME, expr.VAL, stmt.ENV),
    stmt.OUT = NullList;
    # expr.ENV and stmt.MSGS implicit

  stmt ::= PRINT expr SEMI -> PrintLimb :
    stmt.ENVOUT = stmt.ENV,
    stmt.OUT = Cons(expr.VAL, NullList);
    # expr.ENV and stmt.MSGS implicit

  expr0 ::= expr1 PLUS term -> AddLimb :
    expr0.VAL = expr1.VAL + term.VAL,
    expr0.MSGS = MergeMsgs(expr1.MSGS, term.MSGS);

  expr0 ::= expr1 MINUS term -> SubLimb :
    expr0.VAL = expr1.VAL - term.VAL,
    expr0.MSGS = MergeMsgs(expr1.MSGS, term.MSGS);

  expr ::= term -> TermLimb ;

  term ::= NUM -> NumLimb :
    term.VAL = NUM.LEXVAL,
    term.MSGS = NullMsgList;

  term ::= ID -> VarLimb :
    VarLimb.V = EvalPF(term.ENV, ID.NAME),
    term.VAL = if V = Bottom then 0 else V endif,
    term.MSGS = if V = Bottom
                then ConsMsg(ID.LINE, UndefinedVariable, ID.NAME, NullMsgList)
                else NullMsgList endif;

  term ::= LPAR expr RPAR -> ParLimb ;
    # term.VAL = expr.VAL? no: VAL carried implicitly; ENV implicit; MSGS implicit
end
|}

let scanner =
  Lg_scanner.Spec.make
    ~keywords:[ ("print", "PRINT") ]
    ~keyword_rules:[ "ID" ]
    [
      ("WS", "[ \\t\\n]+", Lg_scanner.Spec.Skip);
      ("COMMENT", "#[^\\n]*", Lg_scanner.Spec.Skip);
      ("NUM", "[0-9]+", Lg_scanner.Spec.Token);
      ("ID", "[a-z][a-z0-9_]*", Lg_scanner.Spec.Token);
      ("ASSIGN", ":=", Lg_scanner.Spec.Token);
      ("SEMI", ";", Lg_scanner.Spec.Token);
      ("PLUS", "\\+", Lg_scanner.Spec.Token);
      ("MINUS", "-", Lg_scanner.Spec.Token);
      ("LPAR", "\\(", Lg_scanner.Spec.Token);
      ("RPAR", "\\)", Lg_scanner.Spec.Token);
    ]

let translator_with ~options () =
  Linguist.Translator.make_exn ~options ~scanner ~ag_source ~file:"desk_calc.ag"
    ()

let translator () = translator_with ~options:Linguist.Driver.default_options ()

type outcome = {
  printed : int list;
  errors : (int * string) list;
}

let run ?translator:tr source =
  let t = match tr with Some t -> t | None -> translator () in
  let result = Linguist.Translator.translate_exn t ~file:"<input>" source in
  let printed =
    match
      Option.bind
        (List.assoc_opt "OUT" result.Linguist.Translator.outputs)
        Value.as_list
    with
    | Some items ->
        List.map (function Value.Int n -> n | _ -> 0) items
    | None -> []
  in
  let errors =
    match
      Option.bind
        (List.assoc_opt "MSGS" result.Linguist.Translator.outputs)
        Value.as_list
    with
    | Some items ->
        List.filter_map
          (function
            | Value.Term ("msg", [ Value.Int line; _; Value.Name n ]) ->
                Some (line, Interner.text (Linguist.Translator.interner t) n)
            | _ -> None)
          items
    | None -> []
  in
  { printed; errors }

(* Hand-written interpreter over the same concrete syntax: the oracle. *)
let reference source =
  let diag = Diag.create () in
  let tokens =
    Lg_scanner.Engine.scan (Lg_scanner.Tables.compile scanner) ~file:"<ref>"
      ~diag source
  in
  if not (Diag.is_ok diag) then failwith "Desk_calc.reference: scan error";
  let toks = ref tokens in
  let peek () = match !toks with t :: _ -> Some t | [] -> None in
  let next () =
    match !toks with
    | t :: rest ->
        toks := rest;
        t
    | [] -> failwith "Desk_calc.reference: unexpected end"
  in
  let expect kind =
    let t = next () in
    if not (String.equal t.Lg_scanner.Engine.kind kind) then
      failwith (Printf.sprintf "Desk_calc.reference: expected %s" kind)
  in
  let env : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let printed = ref [] and errors = ref [] in
  let rec parse_expr () =
    let v = parse_term () in
    parse_expr_rest v
  and parse_expr_rest v =
    match peek () with
    | Some { kind = "PLUS"; _ } ->
        ignore (next ());
        parse_expr_rest (v + parse_term ())
    | Some { kind = "MINUS"; _ } ->
        ignore (next ());
        parse_expr_rest (v - parse_term ())
    | _ -> v
  and parse_term () =
    let t = next () in
    match t.Lg_scanner.Engine.kind with
    | "NUM" -> int_of_string t.lexeme
    | "ID" -> (
        match Hashtbl.find_opt env t.lexeme with
        | Some v -> v
        | None ->
            errors :=
              (t.Lg_scanner.Engine.span.Loc.start_p.Loc.line, t.lexeme)
              :: !errors;
            0)
    | "LPAR" ->
        let v = parse_expr () in
        expect "RPAR";
        v
    | k -> failwith ("Desk_calc.reference: unexpected " ^ k)
  in
  let rec parse_stmts () =
    match peek () with
    | None -> ()
    | Some { kind = "PRINT"; _ } ->
        ignore (next ());
        let v = parse_expr () in
        expect "SEMI";
        printed := v :: !printed;
        parse_stmts ()
    | Some { kind = "ID"; lexeme; _ } ->
        ignore (next ());
        expect "ASSIGN";
        let v = parse_expr () in
        expect "SEMI";
        Hashtbl.replace env lexeme v;
        parse_stmts ()
    | Some t -> failwith ("Desk_calc.reference: unexpected " ^ t.kind)
  in
  parse_stmts ();
  { printed = List.rev !printed; errors = List.rev !errors }
