open Lg_support

let ag_source =
  {|# The LINGUIST attribute grammar: the AG input language described as an
# attribute grammar. Four alternating passes:
#   pass 1 (R2L)  declarations, uses and counts rise bottom-up
#   pass 2 (L2R)  duplicate declarations (seen-chain) and undeclared uses
#   pass 3 (R2L)  checked dictionary down; used-later set flows leftwards
#   pass 4 (L2R)  live productions numbered; report assembled
grammar Linguist;
root spec;
strategy bottom_up;

terminals
  IDENT  has intrinsic NAME : name, intrinsic BASENAME : name, intrinsic LINE : int;
  NUMBER has intrinsic LEXVAL : int, intrinsic LINE : int;
  STRING has intrinsic LINE : int;
  GRAMMAR; TERMINALS; NONTERMINALS; LIMBS; PRODUCTIONS; ROOT; STRATEGY;
  BOTTOM_UP; RECURSIVE_DESCENT; HAS; INH; SYN; INTRINSIC;
  IF; THEN; ELSIF; ELSE; ENDIF; AND; OR; NOT; TRUE; FALSE; END;
  CCEQ; ARROW; NE; LE; GE; EQ; LT; GT; PLUS; MINUS;
  COMMA; SEMI; COLON; DOT; LPAREN; RPAREN;
end

nonterminals
  spec     has syn MSGS : list, syn REPORT : list, syn NSYMS : int,
               syn NATTRS : int, syn NPRODS : int, syn NSEMS : int,
               syn NCOPIES : int, syn NTERMS : int, syn NNONTS : int,
               syn NLIMBS : int;
  sections has inh DICT : env, inh CHECKED : env, inh SEEN : env,
               syn SEENOUT : env, inh USEDAFTER : set, inh ORD : int,
               syn ORDOUT : int, syn DECLS : env, syn USED : set,
               syn MSGS : list, syn LATEMSGS : list, syn REPORT : list,
               syn NSYMS : int, syn NATTRS : int, syn NPRODS : int,
               syn NSEMS : int, syn NCOPIES : int, syn NROOTS : int,
               syn NSTRATS : int, syn NTERMS : int, syn NNONTS : int,
               syn NLIMBS : int;
  section  has inh DICT : env, inh CHECKED : env, inh SEEN : env,
               syn SEENOUT : env, inh USEDAFTER : set, inh ORD : int,
               syn ORDOUT : int, syn DECLS : env, syn USED : set,
               syn MSGS : list, syn LATEMSGS : list, syn REPORT : list,
               syn NSYMS : int, syn NATTRS : int, syn NPRODS : int,
               syn NSEMS : int, syn NCOPIES : int, syn NROOTS : int,
               syn NSTRATS : int, syn NTERMS : int, syn NNONTS : int,
               syn NLIMBS : int;
  symdecls has inh KIND : name, inh SEEN : env, syn SEENOUT : env,
               syn DECLS : env, syn MSGS : list, syn NSYMS : int,
               syn NATTRS : int;
  symdecl  has inh KIND : name, inh SEEN : env, syn SEENOUT : env,
               syn DECLS : env, syn MSGS : list, syn NSYMS : int,
               syn NATTRS : int;
  attrdecls has inh ASEEN : env, syn ASEENOUT : env, syn MSGS : list,
                syn NATTRS : int;
  attrdecl  has inh ASEEN : env, syn ASEENOUT : env, syn MSGS : list,
                syn NATTRS : int;
  akind;
  prods    has inh DICT : env, inh CHECKED : env, inh USEDAFTER : set,
               inh ORD : int, syn ORDOUT : int, syn USED : set,
               syn MSGS : list, syn LATEMSGS : list, syn REPORT : list,
               syn NPRODS : int, syn NSEMS : int, syn NCOPIES : int;
  prod     has inh DICT : env, inh CHECKED : env, inh USEDAFTER : set,
               inh ORD : int, syn ORDOUT : int, syn USED : set,
               syn MSGS : list, syn LATEMSGS : list, syn REPORT : list,
               syn NPRODS : int, syn NSEMS : int, syn NCOPIES : int;
  rhssyms  has inh DICT : env, syn USED : set, syn MSGS : list;
  limbopt  has inh DICT : env, syn USED : set, syn MSGS : list;
  semopt   has inh DICT : env, syn USED : set, syn MSGS : list,
               syn NSEMS : int, syn NCOPIES : int;
  semfns   has inh DICT : env, syn USED : set, syn MSGS : list,
               syn NSEMS : int, syn NCOPIES : int;
  semfn    has inh DICT : env, syn USED : set, syn MSGS : list,
               syn NCOPIES : int;
  targets  has inh DICT : env, syn USED : set, syn MSGS : list;
  target   has inh DICT : env, syn USED : set, syn MSGS : list;
  expr     has inh DICT : env, syn USED : set, syn MSGS : list, syn ISREF : int;
  ifexpr   has inh DICT : env, syn USED : set, syn MSGS : list, syn ISREF : int;
  eliflist has inh DICT : env, syn USED : set, syn MSGS : list;
  exprlist has inh DICT : env, syn USED : set, syn MSGS : list;
  disj     has inh DICT : env, syn USED : set, syn MSGS : list, syn ISREF : int;
  conj     has inh DICT : env, syn USED : set, syn MSGS : list, syn ISREF : int;
  rel      has inh DICT : env, syn USED : set, syn MSGS : list, syn ISREF : int;
  arith    has inh DICT : env, syn USED : set, syn MSGS : list, syn ISREF : int;
  term     has inh DICT : env, syn USED : set, syn MSGS : list, syn ISREF : int;
  atom     has inh DICT : env, syn USED : set, syn MSGS : list, syn ISREF : int;
end

limbs
  SpecLimb has RMSG : list, SMSG : list;
  SectionsSnocLimb; SectionsOneLimb;
  RootSectionLimb has RV : name;
  StratBuLimb; StratRdLimb;
  TermSectionLimb; NontermSectionLimb; LimbSectionLimb;
  ProdSectionLimb;
  SymdeclsSnocLimb; SymdeclsOneLimb;
  SymdeclPlainLimb has PREV : name;
  SymdeclAttrsLimb has PREV : name;
  AttrdeclsSnocLimb; AttrdeclsOneLimb;
  AttrdeclKindLimb has APREV : name;
  AttrdeclPlainLimb has APREV : name;
  AkindInhLimb; AkindSynLimb; AkindIntrLimb;
  ProdsSnocLimb; ProdsOneLimb;
  ProdLimb has LHSK : name, LIVE : int;
  RhssnocLimb has RK : name;
  RhsnilLimb;
  LimbSomeLimb has LK : name;
  LimbNoneLimb;
  SemSomeLimb; SemNoneLimb;
  SemfnsSnocLimb; SemfnsOneLimb;
  SemfnLimb;
  TargetsSnocLimb; TargetsOneLimb;
  TargetDotLimb has TK : name;
  TargetBareLimb;
  ExprDisjLimb; ExprIfLimb;
  IfexprLimb;
  ElifSnocLimb; ElifNilLimb;
  ExprlistSnocLimb; ExprlistOneLimb;
  OrLimb; DisjOneLimb;
  AndLimb; ConjOneLimb;
  RelEqLimb; RelNeLimb; RelLtLimb; RelGtLimb; RelLeLimb; RelGeLimb; RelOneLimb;
  AddLimb; SubLimb; ArithOneLimb;
  NotTermLimb; NegTermLimb; TermAtomLimb;
  AtomNumLimb; AtomStrLimb; AtomTrueLimb; AtomFalseLimb; AtomIdentLimb;
  AtomDotLimb has AK : name;
  AtomCallLimb; AtomCall0Limb; AtomParenLimb;
end

productions
  spec ::= GRAMMAR IDENT SEMI sections -> SpecLimb :
    sections.DICT = sections.DECLS,
    sections.SEEN = NullPF,
    sections.CHECKED = sections.SEENOUT,
    sections.USEDAFTER = EmptySet,
    sections.ORD = 1,
    SpecLimb.RMSG = if sections.NROOTS = 1 then NullMsgList
                    elsif sections.NROOTS = 0
                    then ConsMsg(1, MissingRoot, NullName, NullMsgList)
                    else ConsMsg(1, MultipleRoots, NullName, NullMsgList) endif,
    SpecLimb.SMSG = if sections.NSTRATS > 1
                    then ConsMsg(1, MultipleStrategies, NullName, NullMsgList)
                    else NullMsgList endif,
    spec.MSGS = MergeMsgs(RMSG, MergeMsgs(SMSG,
                MergeMsgs(sections.MSGS, sections.LATEMSGS)));
    # the count attributes and REPORT rise via implicit copy-rules

  sections0 ::= sections1 section -> SectionsSnocLimb :
    section.SEEN = sections1.SEENOUT,
    sections0.SEENOUT = section.SEENOUT,
    sections1.USEDAFTER = Intersect(Union(section.USED, sections0.USEDAFTER),
                                    DomainOf(sections0.CHECKED)),
    section.ORD = sections1.ORDOUT,
    sections0.ORDOUT = section.ORDOUT,
    sections0.DECLS = UnionPF(sections1.DECLS, section.DECLS),
    sections0.USED = Union(sections1.USED, section.USED),
    sections0.MSGS = MergeMsgs(sections1.MSGS, section.MSGS),
    sections0.LATEMSGS = MergeMsgs(sections1.LATEMSGS, section.LATEMSGS),
    sections0.REPORT = Append(sections1.REPORT, section.REPORT),
    sections0.NSYMS = sections1.NSYMS + section.NSYMS,
    sections0.NATTRS = sections1.NATTRS + section.NATTRS,
    sections0.NPRODS = sections1.NPRODS + section.NPRODS,
    sections0.NSEMS = sections1.NSEMS + section.NSEMS,
    sections0.NCOPIES = sections1.NCOPIES + section.NCOPIES,
    sections0.NROOTS = sections1.NROOTS + section.NROOTS,
    sections0.NSTRATS = sections1.NSTRATS + section.NSTRATS,
    sections0.NTERMS = sections1.NTERMS + section.NTERMS,
    sections0.NNONTS = sections1.NNONTS + section.NNONTS,
    sections0.NLIMBS = sections1.NLIMBS + section.NLIMBS;

  sections ::= section -> SectionsOneLimb ;

  section ::= ROOT IDENT SEMI -> RootSectionLimb :
    RootSectionLimb.RV = EvalPF(section.DICT, IDENT.BASENAME),
    section.MSGS = if RV = Bottom
                   then ConsMsg(IDENT.LINE, UndeclaredSymbol, IDENT.NAME, NullMsgList)
                   elsif RV <> KNonterminal
                   then ConsMsg(IDENT.LINE, RootMustBeNonterminal, IDENT.NAME, NullMsgList)
                   else NullMsgList endif,
    section.USED = UnionSetof(IDENT.BASENAME, EmptySet),
    section.DECLS = NullPF,
    section.SEENOUT = section.SEEN,
    section.ORDOUT = section.ORD,
    section.NSYMS = 0, section.NATTRS = 0, section.NPRODS = 0,
    section.NSEMS = 0, section.NCOPIES = 0,
    section.NROOTS = 1, section.NSTRATS = 0,
    section.NTERMS = 0, section.NNONTS = 0, section.NLIMBS = 0,
    section.LATEMSGS = NullMsgList,
    section.REPORT = NullList;

  section ::= STRATEGY BOTTOM_UP SEMI -> StratBuLimb :
    section.MSGS = NullMsgList,
    section.USED = EmptySet,
    section.DECLS = NullPF,
    section.SEENOUT = section.SEEN,
    section.ORDOUT = section.ORD,
    section.NSYMS = 0, section.NATTRS = 0, section.NPRODS = 0,
    section.NSEMS = 0, section.NCOPIES = 0,
    section.NROOTS = 0, section.NSTRATS = 1,
    section.NTERMS = 0, section.NNONTS = 0, section.NLIMBS = 0,
    section.LATEMSGS = NullMsgList,
    section.REPORT = NullList;

  section ::= STRATEGY RECURSIVE_DESCENT SEMI -> StratRdLimb :
    section.MSGS = NullMsgList,
    section.USED = EmptySet,
    section.DECLS = NullPF,
    section.SEENOUT = section.SEEN,
    section.ORDOUT = section.ORD,
    section.NSYMS = 0, section.NATTRS = 0, section.NPRODS = 0,
    section.NSEMS = 0, section.NCOPIES = 0,
    section.NROOTS = 0, section.NSTRATS = 1,
    section.NTERMS = 0, section.NNONTS = 0, section.NLIMBS = 0,
    section.LATEMSGS = NullMsgList,
    section.REPORT = NullList;

  section ::= TERMINALS symdecls END -> TermSectionLimb :
    symdecls.KIND = KTerminal,
    section.NROOTS = 0, section.NSTRATS = 0,
    section.NTERMS = symdecls.NSYMS, section.NNONTS = 0, section.NLIMBS = 0,
    section.USED = EmptySet,
    section.ORDOUT = section.ORD,
    section.NPRODS = 0, section.NSEMS = 0, section.NCOPIES = 0,
    section.LATEMSGS = NullMsgList,
    section.REPORT = NullList;
    # DECLS, SEENOUT, MSGS, NSYMS, NATTRS rise implicitly; SEEN descends

  section ::= NONTERMINALS symdecls END -> NontermSectionLimb :
    symdecls.KIND = KNonterminal,
    section.NROOTS = 0, section.NSTRATS = 0,
    section.NTERMS = 0, section.NNONTS = symdecls.NSYMS, section.NLIMBS = 0,
    section.USED = EmptySet,
    section.ORDOUT = section.ORD,
    section.NPRODS = 0, section.NSEMS = 0, section.NCOPIES = 0,
    section.LATEMSGS = NullMsgList,
    section.REPORT = NullList;

  section ::= LIMBS symdecls END -> LimbSectionLimb :
    symdecls.KIND = KLimb,
    section.NROOTS = 0, section.NSTRATS = 0,
    section.NTERMS = 0, section.NNONTS = 0, section.NLIMBS = symdecls.NSYMS,
    section.USED = EmptySet,
    section.ORDOUT = section.ORD,
    section.NPRODS = 0, section.NSEMS = 0, section.NCOPIES = 0,
    section.LATEMSGS = NullMsgList,
    section.REPORT = NullList;

  section ::= PRODUCTIONS prods END -> ProdSectionLimb :
    section.DECLS = NullPF,
    section.SEENOUT = section.SEEN,
    section.NSYMS = 0, section.NATTRS = 0,
    section.NROOTS = 0, section.NSTRATS = 0,
    section.NTERMS = 0, section.NNONTS = 0, section.NLIMBS = 0;
    # DICT, CHECKED, USEDAFTER, ORD descend implicitly;
    # ORDOUT, USED, MSGS, LATEMSGS, REPORT and the counts rise implicitly

  symdecls0 ::= symdecls1 symdecl -> SymdeclsSnocLimb :
    symdecl.SEEN = symdecls1.SEENOUT,
    symdecls0.SEENOUT = symdecl.SEENOUT,
    symdecls0.DECLS = UnionPF(symdecls1.DECLS, symdecl.DECLS),
    symdecls0.MSGS = MergeMsgs(symdecls1.MSGS, symdecl.MSGS),
    symdecls0.NSYMS = symdecls1.NSYMS + symdecl.NSYMS,
    symdecls0.NATTRS = symdecls1.NATTRS + symdecl.NATTRS;

  symdecls ::= symdecl -> SymdeclsOneLimb ;

  symdecl ::= IDENT SEMI -> SymdeclPlainLimb :
    SymdeclPlainLimb.PREV = EvalPF(symdecl.SEEN, IDENT.NAME),
    symdecl.DECLS = ConsPF(IDENT.NAME, symdecl.KIND, NullPF),
    symdecl.SEENOUT = ConsPF(IDENT.NAME, symdecl.KIND, symdecl.SEEN),
    symdecl.NSYMS = 1,
    symdecl.NATTRS = 0,
    symdecl.MSGS = if PREV = Bottom then NullMsgList
                   else ConsMsg(IDENT.LINE, DuplicateSymbol, IDENT.NAME, NullMsgList) endif;

  symdecl ::= IDENT HAS attrdecls SEMI -> SymdeclAttrsLimb :
    attrdecls.ASEEN = NullPF,
    SymdeclAttrsLimb.PREV = EvalPF(symdecl.SEEN, IDENT.NAME),
    symdecl.DECLS = ConsPF(IDENT.NAME, symdecl.KIND, NullPF),
    symdecl.SEENOUT = ConsPF(IDENT.NAME, symdecl.KIND, symdecl.SEEN),
    symdecl.NSYMS = 1,
    symdecl.MSGS = if PREV = Bottom then attrdecls.MSGS
                   else ConsMsg(IDENT.LINE, DuplicateSymbol, IDENT.NAME, attrdecls.MSGS) endif;
    # symdecl.NATTRS = attrdecls.NATTRS implicitly

  attrdecls0 ::= attrdecls1 COMMA attrdecl -> AttrdeclsSnocLimb :
    attrdecl.ASEEN = attrdecls1.ASEENOUT,
    attrdecls0.ASEENOUT = attrdecl.ASEENOUT,
    attrdecls0.MSGS = MergeMsgs(attrdecls1.MSGS, attrdecl.MSGS),
    attrdecls0.NATTRS = attrdecls1.NATTRS + attrdecl.NATTRS;

  attrdecls ::= attrdecl -> AttrdeclsOneLimb ;

  attrdecl ::= akind IDENT COLON IDENT -> AttrdeclKindLimb :
    AttrdeclKindLimb.APREV = EvalPF(attrdecl.ASEEN, IDENT0.NAME),
    attrdecl.ASEENOUT = ConsPF(IDENT0.NAME, KAttribute, attrdecl.ASEEN),
    attrdecl.NATTRS = 1,
    attrdecl.MSGS = if APREV = Bottom then NullMsgList
                    else ConsMsg(IDENT0.LINE, DuplicateAttribute, IDENT0.NAME, NullMsgList) endif;

  attrdecl ::= IDENT COLON IDENT -> AttrdeclPlainLimb :
    AttrdeclPlainLimb.APREV = EvalPF(attrdecl.ASEEN, IDENT0.NAME),
    attrdecl.ASEENOUT = ConsPF(IDENT0.NAME, KAttribute, attrdecl.ASEEN),
    attrdecl.NATTRS = 1,
    attrdecl.MSGS = if APREV = Bottom then NullMsgList
                    else ConsMsg(IDENT0.LINE, DuplicateAttribute, IDENT0.NAME, NullMsgList) endif;

  akind ::= INH -> AkindInhLimb ;
  akind ::= SYN -> AkindSynLimb ;
  akind ::= INTRINSIC -> AkindIntrLimb ;

  prods0 ::= prods1 prod -> ProdsSnocLimb :
    prods1.USEDAFTER = Intersect(Union(prod.USED, prods0.USEDAFTER),
                                 DomainOf(prods0.CHECKED)),
    prod.ORD = prods1.ORDOUT,
    prods0.ORDOUT = prod.ORDOUT,
    prods0.USED = Union(prods1.USED, prod.USED),
    prods0.MSGS = MergeMsgs(prods1.MSGS, prod.MSGS),
    prods0.LATEMSGS = MergeMsgs(prods1.LATEMSGS, prod.LATEMSGS),
    prods0.REPORT = Append(prods1.REPORT, prod.REPORT),
    prods0.NPRODS = prods1.NPRODS + prod.NPRODS,
    prods0.NSEMS = prods1.NSEMS + prod.NSEMS,
    prods0.NCOPIES = prods1.NCOPIES + prod.NCOPIES;

  prods ::= prod -> ProdsOneLimb ;

  prod ::= IDENT CCEQ rhssyms limbopt semopt SEMI -> ProdLimb :
    ProdLimb.LHSK = EvalPF(prod.DICT, IDENT.BASENAME),
    ProdLimb.LIVE = if IsIn(IDENT.BASENAME, prod.USEDAFTER) then 1 else 0 endif,
    prod.USED = Union(rhssyms.USED, Union(limbopt.USED, semopt.USED)),
    prod.MSGS = if LHSK = Bottom
                then ConsMsg(IDENT.LINE, UndeclaredSymbol, IDENT.NAME,
                             MergeMsgs(rhssyms.MSGS, MergeMsgs(limbopt.MSGS, semopt.MSGS)))
                elsif LHSK <> KNonterminal
                then ConsMsg(IDENT.LINE, LhsMustBeNonterminal, IDENT.NAME,
                             MergeMsgs(rhssyms.MSGS, MergeMsgs(limbopt.MSGS, semopt.MSGS)))
                else MergeMsgs(rhssyms.MSGS, MergeMsgs(limbopt.MSGS, semopt.MSGS)) endif,
    prod.LATEMSGS = if LIVE = 1 then NullMsgList
                    else ConsMsg(IDENT.LINE, NotUsedLater, IDENT.NAME, NullMsgList) endif,
    prod.ORDOUT = prod.ORD + LIVE,
    prod.REPORT = Cons2(prod.ORD, IDENT.NAME, NullList),
    prod.NPRODS = 1;
    # DICT descends implicitly; NSEMS and NCOPIES rise implicitly

  rhssyms0 ::= rhssyms1 IDENT -> RhssnocLimb :
    RhssnocLimb.RK = EvalPF(rhssyms0.DICT, IDENT.BASENAME),
    rhssyms0.USED = UnionSetof(IDENT.BASENAME, rhssyms1.USED),
    rhssyms0.MSGS = if RK = Bottom
                    then ConsMsg(IDENT.LINE, UndeclaredSymbol, IDENT.NAME, rhssyms1.MSGS)
                    elsif RK = KLimb
                    then ConsMsg(IDENT.LINE, LimbInPhraseStructure, IDENT.NAME, rhssyms1.MSGS)
                    else rhssyms1.MSGS endif;

  rhssyms ::= -> RhsnilLimb :
    rhssyms.USED = EmptySet,
    rhssyms.MSGS = NullMsgList;

  limbopt ::= ARROW IDENT -> LimbSomeLimb :
    LimbSomeLimb.LK = EvalPF(limbopt.DICT, IDENT.BASENAME),
    limbopt.USED = UnionSetof(IDENT.BASENAME, EmptySet),
    limbopt.MSGS = if LK = Bottom
                   then ConsMsg(IDENT.LINE, UndeclaredSymbol, IDENT.NAME, NullMsgList)
                   elsif LK <> KLimb
                   then ConsMsg(IDENT.LINE, NotALimbSymbol, IDENT.NAME, NullMsgList)
                   else NullMsgList endif;

  limbopt ::= -> LimbNoneLimb :
    limbopt.USED = EmptySet,
    limbopt.MSGS = NullMsgList;

  semopt ::= COLON semfns -> SemSomeLimb ;

  semopt ::= -> SemNoneLimb :
    semopt.USED = EmptySet,
    semopt.MSGS = NullMsgList,
    semopt.NSEMS = 0,
    semopt.NCOPIES = 0;

  semfns0 ::= semfns1 COMMA semfn -> SemfnsSnocLimb :
    semfns0.USED = Union(semfns1.USED, semfn.USED),
    semfns0.MSGS = MergeMsgs(semfns1.MSGS, semfn.MSGS),
    semfns0.NSEMS = semfns1.NSEMS + 1,
    semfns0.NCOPIES = semfns1.NCOPIES + semfn.NCOPIES;

  semfns ::= semfn -> SemfnsOneLimb :
    semfns.NSEMS = 1;

  semfn ::= targets EQ expr -> SemfnLimb :
    semfn.USED = Union(targets.USED, expr.USED),
    semfn.MSGS = MergeMsgs(targets.MSGS, expr.MSGS),
    semfn.NCOPIES = expr.ISREF;

  targets0 ::= targets1 COMMA target -> TargetsSnocLimb :
    targets0.USED = Union(targets1.USED, target.USED),
    targets0.MSGS = MergeMsgs(targets1.MSGS, target.MSGS);

  targets ::= target -> TargetsOneLimb ;

  target ::= IDENT0 DOT IDENT1 -> TargetDotLimb :
    TargetDotLimb.TK = EvalPF(target.DICT, IDENT0.BASENAME),
    target.USED = UnionSetof(IDENT0.BASENAME, EmptySet),
    target.MSGS = if TK = Bottom
                  then ConsMsg(IDENT0.LINE, UndeclaredOccurrence, IDENT0.NAME, NullMsgList)
                  else NullMsgList endif;

  target ::= IDENT -> TargetBareLimb :
    target.USED = EmptySet,
    target.MSGS = NullMsgList;

  expr ::= disj -> ExprDisjLimb ;
  expr ::= ifexpr -> ExprIfLimb ;

  ifexpr ::= IF expr THEN exprlist0 eliflist ELSE exprlist1 ENDIF -> IfexprLimb :
    ifexpr.USED = Union(expr.USED,
                        Union(exprlist0.USED, Union(eliflist.USED, exprlist1.USED))),
    ifexpr.MSGS = MergeMsgs(expr.MSGS,
                            MergeMsgs(exprlist0.MSGS,
                                      MergeMsgs(eliflist.MSGS, exprlist1.MSGS))),
    ifexpr.ISREF = 0;

  eliflist0 ::= eliflist1 ELSIF expr THEN exprlist -> ElifSnocLimb :
    eliflist0.USED = Union(eliflist1.USED, Union(expr.USED, exprlist.USED)),
    eliflist0.MSGS = MergeMsgs(eliflist1.MSGS, MergeMsgs(expr.MSGS, exprlist.MSGS));

  eliflist ::= -> ElifNilLimb :
    eliflist.USED = EmptySet,
    eliflist.MSGS = NullMsgList;

  exprlist0 ::= exprlist1 COMMA expr -> ExprlistSnocLimb :
    exprlist0.USED = Union(exprlist1.USED, expr.USED),
    exprlist0.MSGS = MergeMsgs(exprlist1.MSGS, expr.MSGS);

  exprlist ::= expr -> ExprlistOneLimb ;

  disj0 ::= disj1 OR conj -> OrLimb :
    disj0.USED = Union(disj1.USED, conj.USED),
    disj0.MSGS = MergeMsgs(disj1.MSGS, conj.MSGS),
    disj0.ISREF = 0;

  disj ::= conj -> DisjOneLimb ;

  conj0 ::= conj1 AND rel -> AndLimb :
    conj0.USED = Union(conj1.USED, rel.USED),
    conj0.MSGS = MergeMsgs(conj1.MSGS, rel.MSGS),
    conj0.ISREF = 0;

  conj ::= rel -> ConjOneLimb ;

  rel ::= arith0 EQ arith1 -> RelEqLimb :
    rel.USED = Union(arith0.USED, arith1.USED),
    rel.MSGS = MergeMsgs(arith0.MSGS, arith1.MSGS),
    rel.ISREF = 0;

  rel ::= arith0 NE arith1 -> RelNeLimb :
    rel.USED = Union(arith0.USED, arith1.USED),
    rel.MSGS = MergeMsgs(arith0.MSGS, arith1.MSGS),
    rel.ISREF = 0;

  rel ::= arith0 LT arith1 -> RelLtLimb :
    rel.USED = Union(arith0.USED, arith1.USED),
    rel.MSGS = MergeMsgs(arith0.MSGS, arith1.MSGS),
    rel.ISREF = 0;

  rel ::= arith0 GT arith1 -> RelGtLimb :
    rel.USED = Union(arith0.USED, arith1.USED),
    rel.MSGS = MergeMsgs(arith0.MSGS, arith1.MSGS),
    rel.ISREF = 0;

  rel ::= arith0 LE arith1 -> RelLeLimb :
    rel.USED = Union(arith0.USED, arith1.USED),
    rel.MSGS = MergeMsgs(arith0.MSGS, arith1.MSGS),
    rel.ISREF = 0;

  rel ::= arith0 GE arith1 -> RelGeLimb :
    rel.USED = Union(arith0.USED, arith1.USED),
    rel.MSGS = MergeMsgs(arith0.MSGS, arith1.MSGS),
    rel.ISREF = 0;

  rel ::= arith -> RelOneLimb ;

  arith0 ::= arith1 PLUS term -> AddLimb :
    arith0.USED = Union(arith1.USED, term.USED),
    arith0.MSGS = MergeMsgs(arith1.MSGS, term.MSGS),
    arith0.ISREF = 0;

  arith0 ::= arith1 MINUS term -> SubLimb :
    arith0.USED = Union(arith1.USED, term.USED),
    arith0.MSGS = MergeMsgs(arith1.MSGS, term.MSGS),
    arith0.ISREF = 0;

  arith ::= term -> ArithOneLimb ;

  term0 ::= NOT term1 -> NotTermLimb :
    term0.ISREF = 0;
    # USED and MSGS rise implicitly

  term0 ::= MINUS term1 -> NegTermLimb :
    term0.ISREF = 0;

  term ::= atom -> TermAtomLimb ;

  atom ::= NUMBER -> AtomNumLimb :
    atom.USED = EmptySet,
    atom.MSGS = NullMsgList,
    atom.ISREF = 0;

  atom ::= STRING -> AtomStrLimb :
    atom.USED = EmptySet,
    atom.MSGS = NullMsgList,
    atom.ISREF = 0;

  atom ::= TRUE -> AtomTrueLimb :
    atom.USED = EmptySet,
    atom.MSGS = NullMsgList,
    atom.ISREF = 0;

  atom ::= FALSE -> AtomFalseLimb :
    atom.USED = EmptySet,
    atom.MSGS = NullMsgList,
    atom.ISREF = 0;

  atom ::= IDENT -> AtomIdentLimb :
    atom.USED = EmptySet,
    atom.MSGS = NullMsgList,
    atom.ISREF = 0;

  atom ::= IDENT0 DOT IDENT1 -> AtomDotLimb :
    AtomDotLimb.AK = EvalPF(atom.DICT, IDENT0.BASENAME),
    atom.USED = UnionSetof(IDENT0.BASENAME, EmptySet),
    atom.MSGS = if AK = Bottom
                then ConsMsg(IDENT0.LINE, UndeclaredOccurrence, IDENT0.NAME, NullMsgList)
                else NullMsgList endif,
    atom.ISREF = 1;

  atom ::= IDENT LPAREN exprlist RPAREN -> AtomCallLimb :
    atom.ISREF = 0;
    # USED and MSGS rise from exprlist implicitly

  atom ::= IDENT LPAREN RPAREN -> AtomCall0Limb :
    atom.USED = EmptySet,
    atom.MSGS = NullMsgList,
    atom.ISREF = 0;

  atom ::= LPAREN expr RPAREN -> AtomParenLimb ;
end
|}

let scanner = Linguist.Ag_lexer.spec

let translator_with ~options () =
  Linguist.Translator.make_exn ~options ~scanner ~ag_source ~file:"linguist.ag" ()

let translator () = translator_with ~options:Linguist.Driver.default_options ()

type analysis = {
  messages : (int * string * string) list;
  report : (int * string) list;
  n_symbols : int;
  n_attr_decls : int;
  n_productions : int;
  n_semantic_functions : int;
  n_copy_estimate : int;
  n_terminals : int;
  n_nonterminals : int;
  n_limbs : int;
}

let analyze ?engine_options ?translator:tr source =
  let t = match tr with Some t -> t | None -> translator () in
  let result =
    Linguist.Translator.translate_exn ?engine_options t ~file:"<ag-input>"
      source
  in
  let outputs = result.Linguist.Translator.outputs in
  let names = Linguist.Translator.interner t in
  let int_of name =
    match List.assoc_opt name outputs with Some (Value.Int n) -> n | _ -> 0
  in
  let messages =
    match Option.bind (List.assoc_opt "MSGS" outputs) Value.as_list with
    | Some items ->
        List.filter_map
          (function
            | Value.Term ("msg", [ Value.Int line; Value.Term (tag, []); name ]) ->
                let text =
                  match name with
                  | Value.Name n -> Interner.text names n
                  | _ -> ""
                in
                Some (line, tag, text)
            | _ -> None)
          items
    | None -> []
  in
  let report =
    match Option.bind (List.assoc_opt "REPORT" outputs) Value.as_list with
    | Some items ->
        List.filter_map
          (function
            | Value.List [ Value.Int ord; Value.Name n ] ->
                Some (ord, Interner.text names n)
            | _ -> None)
          items
    | None -> []
  in
  {
    messages;
    report;
    n_symbols = int_of "NSYMS";
    n_attr_decls = int_of "NATTRS";
    n_productions = int_of "NPRODS";
    n_semantic_functions = int_of "NSEMS";
    n_copy_estimate = int_of "NCOPIES";
    n_terminals = int_of "NTERMS";
    n_nonterminals = int_of "NNONTS";
    n_limbs = int_of "NLIMBS";
  }

let self_analysis () = analyze ag_source
