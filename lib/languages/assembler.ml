open Lg_support

let ag_source =
  {|# A symbolic assembler: forward references resolved without back-patching.
# Pass 1 (R2L): instruction sizes rise.  Pass 2 (L2R): addresses flow down
# as a prefix sum; the label table is threaded left to right.  Pass 3
# (R2L): the completed table returns down the tree and jump offsets are
# computed arithmetically.
grammar Assembler;
root program;
strategy bottom_up;

terminals
  ID has intrinsic NAME : name, intrinsic LINE : int;
  NUM has intrinsic LEXVAL : int;
  COLON;
  PUSH; LOAD; STORE; ADD; SUB; MUL; LTI; GTI; EQI; NOTI; OUT; JT; JF; JMP;
end

nonterminals
  program has syn CODE : list, syn MSGS : list;
  lines has inh ADDR : int, syn LEN : int, inh SYMS : env, syn SYMSOUT : env,
            inh LABELS : env, syn CODE : list, syn MSGS : list;
  line has inh ADDR : int, syn LEN : int, inh SYMS : env, syn SYMSOUT : env,
           inh LABELS : env, syn CODE : list, syn MSGS : list;
  optlabel has inh ADDR : int, inh SYMS : env, syn SYMSOUT : env, syn MSGS : list;
  instr has inh ADDR : int, syn LEN : int, inh LABELS : env, syn CODE : list,
            syn MSGS : list;
end

limbs
  ProgLimb;
  LinesSnocLimb; LinesOneLimb;
  LineLimb;
  LabelLimb has PREV : int;
  NoLabelLimb;
  PushLimb; LoadLimb; StoreLimb;
  AddLimb; SubLimb; MulLimb; LtLimb; GtLimb; EqLimb; NotLimb; OutLimb;
  JmpLimb has TGT : int;
  JfLimb has TGT2 : int;
  JtLimb has TGT3 : int;
end

productions
  program ::= lines -> ProgLimb :
    lines.ADDR = 0,
    lines.SYMS = NullPF,
    lines.LABELS = lines.SYMSOUT;
    # program.CODE and program.MSGS rise implicitly

  lines0 ::= lines1 line -> LinesSnocLimb :
    line.ADDR = lines0.ADDR + lines1.LEN,
    lines0.LEN = lines1.LEN + line.LEN,
    line.SYMS = lines1.SYMSOUT,
    lines0.SYMSOUT = line.SYMSOUT,
    lines0.CODE = Append(lines1.CODE, line.CODE),
    lines0.MSGS = MergeMsgs(lines1.MSGS, line.MSGS);
    # lines1.ADDR, lines1.SYMS and both LABELS copies are implicit

  lines ::= line -> LinesOneLimb ;

  line ::= optlabel instr -> LineLimb :
    line.MSGS = MergeMsgs(optlabel.MSGS, instr.MSGS);
    # ADDR and SYMS descend, LEN / SYMSOUT / CODE rise — all implicit

  optlabel ::= ID COLON -> LabelLimb :
    LabelLimb.PREV = EvalPF(optlabel.SYMS, ID.NAME),
    optlabel.SYMSOUT = ConsPF(ID.NAME, optlabel.ADDR, optlabel.SYMS),
    optlabel.MSGS = if PREV = Bottom then NullMsgList
                    else ConsMsg(ID.LINE, DuplicateLabel, ID.NAME, NullMsgList) endif;

  optlabel ::= -> NoLabelLimb :
    optlabel.SYMSOUT = optlabel.SYMS,
    optlabel.MSGS = NullMsgList;

  instr ::= PUSH NUM -> PushLimb :
    instr.LEN = 1,
    instr.CODE = Cons(Push(NUM.LEXVAL), NullList),
    instr.MSGS = NullMsgList;

  instr ::= LOAD ID -> LoadLimb :
    instr.LEN = 1,
    instr.CODE = Cons(Load(ID.NAME), NullList),
    instr.MSGS = NullMsgList;

  instr ::= STORE ID -> StoreLimb :
    instr.LEN = 1,
    instr.CODE = Cons(Store(ID.NAME), NullList),
    instr.MSGS = NullMsgList;

  instr ::= ADD -> AddLimb :
    instr.LEN = 1, instr.CODE = Cons(Add, NullList), instr.MSGS = NullMsgList;
  instr ::= SUB -> SubLimb :
    instr.LEN = 1, instr.CODE = Cons(Sub, NullList), instr.MSGS = NullMsgList;
  instr ::= MUL -> MulLimb :
    instr.LEN = 1, instr.CODE = Cons(Mul, NullList), instr.MSGS = NullMsgList;
  instr ::= LTI -> LtLimb :
    instr.LEN = 1, instr.CODE = Cons(Lt, NullList), instr.MSGS = NullMsgList;
  instr ::= GTI -> GtLimb :
    instr.LEN = 1, instr.CODE = Cons(Gt, NullList), instr.MSGS = NullMsgList;
  instr ::= EQI -> EqLimb :
    instr.LEN = 1, instr.CODE = Cons(Eq, NullList), instr.MSGS = NullMsgList;
  instr ::= NOTI -> NotLimb :
    instr.LEN = 1, instr.CODE = Cons(Not, NullList), instr.MSGS = NullMsgList;
  instr ::= OUT -> OutLimb :
    instr.LEN = 1, instr.CODE = Cons(Writeln, NullList), instr.MSGS = NullMsgList;

  instr ::= JMP ID -> JmpLimb :
    JmpLimb.TGT = EvalPF(instr.LABELS, ID.NAME),
    instr.LEN = 1,
    instr.CODE = if TGT = Bottom then Cons(Jmp(0), NullList)
                 else Cons(Jmp(TGT - (instr.ADDR + 1)), NullList) endif,
    instr.MSGS = if TGT = Bottom
                 then ConsMsg(ID.LINE, UndefinedLabel, ID.NAME, NullMsgList)
                 else NullMsgList endif;

  instr ::= JF ID -> JfLimb :
    JfLimb.TGT2 = EvalPF(instr.LABELS, ID.NAME),
    instr.LEN = 1,
    instr.CODE = if TGT2 = Bottom then Cons(JmpF(0), NullList)
                 else Cons(JmpF(TGT2 - (instr.ADDR + 1)), NullList) endif,
    instr.MSGS = if TGT2 = Bottom
                 then ConsMsg(ID.LINE, UndefinedLabel, ID.NAME, NullMsgList)
                 else NullMsgList endif;

  # "jump if true" expands to two machine instructions, so instruction
  # sizes are not uniform and the address arithmetic has to be earned.
  instr ::= JT ID -> JtLimb :
    JtLimb.TGT3 = EvalPF(instr.LABELS, ID.NAME),
    instr.LEN = 2,
    instr.CODE = if TGT3 = Bottom then Cons(Not, Cons(JmpF(0), NullList))
                 else Cons(Not, Cons(JmpF(TGT3 - (instr.ADDR + 2)), NullList)) endif,
    instr.MSGS = if TGT3 = Bottom
                 then ConsMsg(ID.LINE, UndefinedLabel, ID.NAME, NullMsgList)
                 else NullMsgList endif;
end
|}

let scanner =
  Lg_scanner.Spec.make
    ~keywords:
      [
        ("push", "PUSH"); ("load", "LOAD"); ("store", "STORE"); ("add", "ADD");
        ("sub", "SUB"); ("mul", "MUL"); ("lt", "LTI"); ("gt", "GTI");
        ("eq", "EQI"); ("not", "NOTI"); ("out", "OUT"); ("jt", "JT");
        ("jf", "JF"); ("jmp", "JMP");
      ]
    ~keyword_rules:[ "ID" ]
    [
      ("WS", "[ \\t\\n]+", Lg_scanner.Spec.Skip);
      ("COMMENT", ";[^\\n]*", Lg_scanner.Spec.Skip);
      ("NUM", "[0-9]+", Lg_scanner.Spec.Token);
      ("ID", "[a-z][a-z0-9_]*", Lg_scanner.Spec.Token);
      ("COLON", ":", Lg_scanner.Spec.Token);
    ]

let translator_with ~options () =
  Linguist.Translator.make_exn ~options ~scanner ~ag_source ~file:"assembler.ag" ()

let translator () = translator_with ~options:Linguist.Driver.default_options ()

type assembled = {
  code : Value.t;
  messages : (int * string * string) list;
}

let assemble ?translator:tr source =
  let t = match tr with Some t -> t | None -> translator () in
  let result = Linguist.Translator.translate_exn t ~file:"<asm>" source in
  let outputs = result.Linguist.Translator.outputs in
  let code =
    Option.value ~default:(Value.List []) (List.assoc_opt "CODE" outputs)
  in
  let messages =
    match Option.bind (List.assoc_opt "MSGS" outputs) Value.as_list with
    | Some items ->
        List.filter_map
          (function
            | Value.Term ("msg", [ Value.Int line; Value.Term (tag, []); name ]) ->
                let text =
                  match name with
                  | Value.Name n ->
                      Interner.text (Linguist.Translator.interner t) n
                  | _ -> ""
                in
                Some (line, tag, text)
            | _ -> None)
          items
    | None -> []
  in
  { code; messages }

let run ?translator source =
  let { code; messages } = assemble ?translator source in
  match messages with
  | [] -> Stack_machine.run code
  | (line, tag, name) :: _ ->
      failwith (Printf.sprintf "Assembler.run: line %d: %s %s" line tag name)

(* A conventional two-pass assembler over the same token stream: pass one
   sizes instructions and collects labels, pass two emits code. *)
let reference source =
  let diag = Diag.create () in
  let tokens =
    Lg_scanner.Engine.scan (Lg_scanner.Tables.compile scanner) ~file:"<ref>"
      ~diag source
  in
  if not (Diag.is_ok diag) then failwith "Assembler.reference: scan error";
  let names = Interner.create () in
  let messages = ref [] in
  (* parse into (label option, mnemonic, argument) triples *)
  let rec parse acc = function
    | [] -> List.rev acc
    | ({ Lg_scanner.Engine.kind = "ID"; _ } as l)
      :: { Lg_scanner.Engine.kind = "COLON"; _ }
      :: rest ->
        parse_instr (Some l) acc rest
    | rest -> parse_instr None acc rest
  and parse_instr label acc = function
    | ({ Lg_scanner.Engine.kind = ("PUSH" | "LOAD" | "STORE" | "JT" | "JF" | "JMP"); _ } as op)
      :: arg :: rest ->
        parse ((label, op, Some arg) :: acc) rest
    | ({ Lg_scanner.Engine.kind = ("ADD" | "SUB" | "MUL" | "LTI" | "GTI" | "EQI" | "NOTI" | "OUT"); _ } as op)
      :: rest ->
        parse ((label, op, None) :: acc) rest
    | t :: _ ->
        failwith ("Assembler.reference: unexpected " ^ t.Lg_scanner.Engine.kind)
    | [] -> failwith "Assembler.reference: trailing label"
  in
  let items = parse [] tokens in
  (* pass one: addresses and label table *)
  let size (_, (op : Lg_scanner.Engine.token), _) =
    if String.equal op.kind "JT" then 2 else 1
  in
  let table : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let addr = ref 0 in
  List.iter
    (fun ((label, _, _) as item) ->
      (match label with
      | Some (l : Lg_scanner.Engine.token) ->
          if Hashtbl.mem table l.lexeme then
            messages :=
              (l.span.Loc.start_p.Loc.line, "DuplicateLabel", l.lexeme)
              :: !messages
          else Hashtbl.replace table l.lexeme !addr
      | None -> ());
      addr := !addr + size item)
    items;
  (* pass two: emit *)
  let code = ref [] in
  let emit i = code := i :: !code in
  let addr = ref 0 in
  List.iter
    (fun ((_, op, arg) as item) ->
      let target (a : Lg_scanner.Engine.token) consumed =
        match Hashtbl.find_opt table a.lexeme with
        | Some t -> t - (!addr + consumed)
        | None ->
            messages :=
              (a.span.Loc.start_p.Loc.line, "UndefinedLabel", a.lexeme)
              :: !messages;
            -(!addr + consumed)
      in
      (match (op.Lg_scanner.Engine.kind, arg) with
      | "PUSH", Some a -> emit (Value.Term ("Push", [ Value.Int (int_of_string a.Lg_scanner.Engine.lexeme) ]))
      | "LOAD", Some a ->
          emit (Value.Term ("Load", [ Value.Name (Interner.intern names a.lexeme) ]))
      | "STORE", Some a ->
          emit (Value.Term ("Store", [ Value.Name (Interner.intern names a.lexeme) ]))
      | "JMP", Some a -> emit (Value.Term ("Jmp", [ Value.Int (target a 1) ]))
      | "JF", Some a -> emit (Value.Term ("JmpF", [ Value.Int (target a 1) ]))
      | "JT", Some a ->
          emit (Value.Term ("Not", []));
          emit (Value.Term ("JmpF", [ Value.Int (target a 2) ]))
      | "ADD", None -> emit (Value.Term ("Add", []))
      | "SUB", None -> emit (Value.Term ("Sub", []))
      | "MUL", None -> emit (Value.Term ("Mul", []))
      | "LTI", None -> emit (Value.Term ("Lt", []))
      | "GTI", None -> emit (Value.Term ("Gt", []))
      | "EQI", None -> emit (Value.Term ("Eq", []))
      | "NOTI", None -> emit (Value.Term ("Not", []))
      | "OUT", None -> emit (Value.Term ("Writeln", []))
      | k, _ -> failwith ("Assembler.reference: bad item " ^ k));
      addr := !addr + size item)
    items;
  { code = Value.List (List.rev !code); messages = List.rev !messages }
