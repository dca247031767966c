type t =
  | Bottom
  | Int of int
  | Bool of bool
  | Str of string
  | Name of Interner.name
  | List of t list
  | Cat of int * t * t
  | Set of t list
  | Pf of (t * t) list
  | Term of string * t list

(* Sequences -------------------------------------------------------------- *)

(* A [Cat (n, l, r)] is the concatenation of the sequences [l] and [r]
   (each a [List] or a [Cat]) and caches its length [n]. Traversals keep
   the pending subtrees on an explicit heap stack, so a rope of any depth,
   left- or right-nested, walks in constant native stack. *)

let seq_length = function
  | List items -> List.length items
  | Cat (n, _, _) -> n
  | _ -> invalid_arg "Value.seq_length"

let to_list v =
  (* right to left, so each leaf is prepended once; the rightmost leaf is
     shared, not copied *)
  let rec go acc = function
    | [] -> acc
    | List items :: stack -> go (match acc with [] -> items | _ -> items @ acc) stack
    | Cat (_, l, r) :: stack -> go acc (r :: l :: stack)
    | _ :: _ -> invalid_arg "Value.to_list: a rope leaf is not a sequence"
  in
  match v with List items -> items | v -> go [] [ v ]

let iter_seq f v =
  let rec go = function
    | [] -> ()
    | List items :: stack ->
        List.iter f items;
        go stack
    | Cat (_, l, r) :: stack -> go (l :: r :: stack)
    | _ :: _ -> invalid_arg "Value.iter_seq: a rope leaf is not a sequence"
  in
  go [ v ]

(* Structural order; constructors compare by declaration order. Set and Pf
   are canonical, so this is also a semantic order. A [Cat] orders exactly
   as the [List] it denotes. *)
let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Cat _, _ -> compare (List (to_list a)) b
    | _, Cat _ -> compare a (List (to_list b))
    | Bottom, Bottom -> 0
    | Bottom, _ -> -1
    | _, Bottom -> 1
    | Int x, Int y -> Stdlib.compare x y
    | Int _, _ -> -1
    | _, Int _ -> 1
    | Bool x, Bool y -> Stdlib.compare x y
    | Bool _, _ -> -1
    | _, Bool _ -> 1
    | Str x, Str y -> String.compare x y
    | Str _, _ -> -1
    | _, Str _ -> 1
    | Name x, Name y -> Stdlib.compare x y
    | Name _, _ -> -1
    | _, Name _ -> 1
    | List x, List y -> compare_list x y
    | List _, _ -> -1
    | _, List _ -> 1
    | Set x, Set y -> compare_list x y
    | Set _, _ -> -1
    | _, Set _ -> 1
    | Pf x, Pf y -> compare_pairs x y
    | Pf _, _ -> -1
    | _, Pf _ -> 1
    | Term (f, x), Term (g, y) -> (
        match String.compare f g with 0 -> compare_list x y | n -> n)

and compare_list x y =
  match (x, y) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | a :: x, b :: y -> ( match compare a b with 0 -> compare_list x y | n -> n)

and compare_pairs x y =
  match (x, y) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (ka, va) :: x, (kb, vb) :: y -> (
      match compare ka kb with
      | 0 -> ( match compare va vb with 0 -> compare_pairs x y | n -> n)
      | n -> n)

let equal a b = compare a b = 0

let rec pp ppf v =
  let pp_items sep ppf items =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "%s@ " sep) pp ppf items
  in
  match v with
  | Bottom -> Format.pp_print_string ppf "_|_"
  | Int n -> Format.pp_print_int ppf n
  | Bool b -> Format.pp_print_bool ppf b
  | Str s -> Format.fprintf ppf "%S" s
  | Name n -> Format.fprintf ppf "#%d" n
  | List items -> Format.fprintf ppf "@[<hov 1>[%a]@]" (pp_items ";") items
  | Cat _ -> pp ppf (List (to_list v))
  | Set items -> Format.fprintf ppf "@[<hov 1>{%a}@]" (pp_items ";") items
  | Pf bindings ->
      let pp_binding ppf (k, v) = Format.fprintf ppf "%a->%a" pp k pp v in
      Format.fprintf ppf "@[<hov 1>{|%a|}@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_binding)
        bindings
  | Term (f, []) -> Format.fprintf ppf "'%s" f
  | Term (f, args) ->
      Format.fprintf ppf "@[<hov 2>%s(%a)@]" f (pp_items ",") args

let to_string v = Format.asprintf "%a" pp v

(* Sets ------------------------------------------------------------------ *)

let set_of_list items = Set (List.sort_uniq compare items)

let set_elements = function
  | Set items -> items
  | Bottom -> []
  | (List _ | Cat _) as v -> List.sort_uniq compare (to_list v)
  | v -> [ v ]

let set_add x s = set_of_list (x :: set_elements s)
let set_union a b = set_of_list (set_elements a @ set_elements b)
let set_mem x s = List.exists (equal x) (set_elements s)

let set_inter a b =
  let eb = set_elements b in
  set_of_list (List.filter (fun x -> List.exists (equal x) eb) (set_elements a))

let set_minus a b =
  let eb = set_elements b in
  set_of_list
    (List.filter (fun x -> not (List.exists (equal x) eb)) (set_elements a))

(* Partial functions ------------------------------------------------------ *)

let pf_bindings = function Pf bs -> bs | Bottom -> [] | _ -> []

let pf_bind ~key ~data pf =
  let rest = List.filter (fun (k, _) -> not (equal k key)) (pf_bindings pf) in
  Pf (List.sort (fun (a, _) (b, _) -> compare a b) ((key, data) :: rest))

let pf_eval pf key =
  match List.find_opt (fun (k, _) -> equal k key) (pf_bindings pf) with
  | Some (_, v) -> v
  | None -> Bottom

let pf_domain pf = set_of_list (List.map fst (pf_bindings pf))

(* Truthiness ------------------------------------------------------------- *)

let is_true = function Bool b -> b | _ -> false
let as_int = function Int n -> Some n | _ -> None
let as_list = function
  | List items -> Some items
  | Cat _ as v -> Some (to_list v)
  | _ -> None

(* Standard library ------------------------------------------------------- *)

let normalize_name s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '$' | '_' -> ()
      | 'A' .. 'Z' -> Buffer.add_char buf (Char.lowercase_ascii c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let list_of = function
  | List items -> items
  | Cat _ as v -> to_list v
  | Bottom -> []
  | v -> [ v ]

(* The sequence a list-package argument denotes: [Bottom] is empty and any
   other non-sequence a singleton, as in {!list_of}. *)
let seq_of = function
  | (List _ | Cat _) as v -> v
  | Bottom -> List []
  | v -> List [ v ]

let append a b =
  match (seq_of a, seq_of b) with
  | List [], s | s, List [] -> s
  | a, b -> Cat (seq_length a + seq_length b, a, b)

let cons x = function
  | Cat (n, _, _) as l -> Cat (n + 1, List [ x ], l)
  | l -> List (x :: list_of l)

(* Functions that take a sequence apart see the flat list a rope
   denotes. *)
let flat_args f args =
  if List.exists (function Cat _ -> true | _ -> false) args then
    f (List.map (function Cat _ as v -> List (to_list v) | v -> v) args)
  else f args

let int_of = function Int n -> n | Bool true -> 1 | _ -> 0

let fn_consmsg = function
  | [ _line; Bottom; _name; rest ] -> rest
  | [ line; err; name; rest ] -> cons (Term ("msg", [ line; err; name ])) rest
  | args -> Term ("cons$msg", args)

(* The list-package constructors and measures: they take ropes as they
   are. *)
let sequence_functions : (string * (t list -> t)) list =
  [
    ( "sizeof",
      function
      | [ Set items ] -> Int (List.length items)
      | [ List items ] -> Int (List.length items)
      | [ Cat (n, _, _) ] -> Int n
      | [ Pf bs ] -> Int (List.length bs)
      | [ Bottom ] -> Int 0
      | args -> Term ("sizeof", args) );
    ("cons", function [ x; l ] -> cons x l | args -> Term ("cons", args));
    ( "cons2",
      function
      | [ a; b; l ] -> cons (List [ a; b ]) l
      | args -> Term ("cons2", args) );
    ( "cons3",
      function
      | [ a; b; c; l ] -> cons (List [ a; b; c ]) l
      | args -> Term ("cons3", args) );
    ("append", function [ a; b ] -> append a b | args -> Term ("append", args));
    ( "lengthof",
      function
      | [ l ] -> Int (seq_length (seq_of l)) | args -> Term ("lengthof", args) );
    ("consmsg", fn_consmsg);
    ( "mergemsgs",
      function [ a; b ] -> append a b | args -> Term ("merge$msgs", args) );
  ]

let other_functions : (string * (t list -> t)) list =
  [
    ("union", function [ a; b ] -> set_union a b | args -> Term ("union", args));
    ( "unionsetof",
      function [ x; s ] -> set_add x s | args -> Term ("union$setof", args) );
    ("isin", function [ x; s ] -> Bool (set_mem x s) | args -> Term ("isin", args));
    ( "intersect",
      function [ a; b ] -> set_inter a b | args -> Term ("intersect", args) );
    ( "setminus",
      function [ a; b ] -> set_minus a b | args -> Term ("setminus", args) );
    ("reverse", function [ l ] -> List (List.rev (list_of l)) | args -> Term ("reverse", args));
    ( "head",
      function
      | [ List (x :: _) ] -> x
      | [ List [] ] | [ Bottom ] -> Bottom
      | args -> Term ("head", args) );
    ( "tail",
      function
      | [ List (_ :: rest) ] -> List rest
      | [ List [] ] | [ Bottom ] -> Bottom
      | args -> Term ("tail", args) );
    ( "conspf",
      function
      | [ key; data; pf ] -> pf_bind ~key ~data pf
      | args -> Term ("consPF", args) );
    ( "evalpf",
      function [ pf; key ] -> pf_eval pf key | args -> Term ("evalPF", args) );
    ("domainof", function [ pf ] -> pf_domain pf | args -> Term ("domainof", args));
    ( "unionpf",
      function
      | [ a; b ] ->
          (* left-biased: bindings of [a] win *)
          List.fold_left
            (fun pf (k, v) ->
              match pf_eval pf k with
              | Bottom -> pf_bind ~key:k ~data:v pf
              | _ -> pf)
            a (pf_bindings b)
      | args -> Term ("unionpf", args) );
    ( "incrifzero",
      function
      | [ x; n ] -> if equal x (Int 0) then Int (int_of n + 1) else n
      | args -> Term ("incrifzero", args) );
    ( "incriftrue",
      function
      | [ b; n ] -> if is_true b then Int (int_of n + 1) else n
      | args -> Term ("incriftrue", args) );
    ( "pow2",
      function
      | [ Int n ] -> if n < 0 then Int 0 else Int (1 lsl n)
      | args -> Term ("pow2", args) );
    ( "mulpow2",
      function
      | [ Int x; Int s ] ->
          if s >= 0 then Int (x lsl s) else Int (x asr -s)
      | args -> Term ("mulpow2", args) );
    ("max", function [ Int a; Int b ] -> Int (max a b) | args -> Term ("max", args));
    ("min", function [ Int a; Int b ] -> Int (min a b) | args -> Term ("min", args));
    ("abs", function [ Int a ] -> Int (abs a) | args -> Term ("abs", args));
    ("pair", function [ a; b ] -> List [ a; b ] | args -> Term ("pair", args));
    ( "first",
      function [ List (x :: _) ] -> x | args -> Term ("first", args) );
    ( "second",
      function [ List (_ :: y :: _) ] -> y | args -> Term ("second", args) );
    ("nameof", function [ Name n ] -> Name n | [ v ] -> v | args -> Term ("nameof", args));
    ("not", function [ Bool b ] -> Bool (not b) | args -> Term ("not", args));
  ]

let functions =
  sequence_functions
  @ List.map (fun (name, f) -> (name, flat_args f)) other_functions

let constants : (string * t) list =
  [
    ("bottom", Bottom);
    ("nomsg", Bottom);
    ("nullname", Bottom);
    ("nullmsglist", List []);
    ("nulllist", List []);
    ("emptyset", Set []);
    ("nullset", Set []);
    ("nullpf", Pf []);
  ]

let function_table : (string, t list -> t) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, f) -> Hashtbl.replace tbl name f) functions;
  tbl

let constant_table : (string, t) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (name, v) -> Hashtbl.replace tbl name v) constants;
  tbl

let lookup_function name = Hashtbl.find_opt function_table (normalize_name name)
let lookup_constant name = Hashtbl.find_opt constant_table (normalize_name name)

let apply name args =
  match lookup_function name with
  | Some f -> f args
  | None -> Term (name, args)

let resolve name =
  match lookup_function name with
  | Some f -> f
  | None -> fun args -> Term (name, args)

let rec has_rope = function
  | Cat _ -> true
  | List items | Set items | Term (_, items) -> List.exists has_rope items
  | Pf bindings -> List.exists (fun (k, v) -> has_rope k || has_rope v) bindings
  | Bottom | Int _ | Bool _ | Str _ | Name _ -> false

let flatten v =
  let rec copy = function
    | (List _ | Cat _) as v -> List (List.map copy (to_list v))
    | Set items -> Set (List.map copy items)
    | Pf bindings -> Pf (List.map (fun (k, v) -> (copy k, copy v)) bindings)
    | Term (f, args) -> Term (f, List.map copy args)
    | (Bottom | Int _ | Bool _ | Str _ | Name _) as v -> v
  in
  if has_rope v then copy v else v

(* Binary encoding --------------------------------------------------------- *)

let add_varint buf n =
  (* zigzag + LEB128 *)
  let u = (n lsl 1) lxor (n asr (Sys.int_size - 1)) in
  let rec go u =
    if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x7f)));
      go (u lsr 7)
    end
  in
  go u

let read_varint s pos =
  let rec go pos shift acc =
    if pos >= String.length s then failwith "Value.decode: truncated varint";
    let byte = Char.code s.[pos] in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  let u, pos = go pos 0 0 in
  ((u lsr 1) lxor (-(u land 1)), pos)

let rec encode buf v =
  match v with
  | Bottom -> Buffer.add_char buf '\000'
  | Int n ->
      Buffer.add_char buf '\001';
      add_varint buf n
  | Bool b ->
      Buffer.add_char buf '\002';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Str s ->
      Buffer.add_char buf '\003';
      add_varint buf (String.length s);
      Buffer.add_string buf s
  | Name n ->
      Buffer.add_char buf '\004';
      add_varint buf n
  | List items ->
      Buffer.add_char buf '\005';
      encode_list buf items
  | Cat (n, _, _) ->
      (* the bytes of the flat list it denotes *)
      Buffer.add_char buf '\005';
      add_varint buf n;
      iter_seq (encode buf) v
  | Set items ->
      Buffer.add_char buf '\006';
      encode_list buf items
  | Pf bindings ->
      Buffer.add_char buf '\007';
      add_varint buf (List.length bindings);
      List.iter
        (fun (k, v) ->
          encode buf k;
          encode buf v)
        bindings
  | Term (f, args) ->
      Buffer.add_char buf '\008';
      add_varint buf (String.length f);
      Buffer.add_string buf f;
      encode_list buf args

and encode_list buf items =
  add_varint buf (List.length items);
  List.iter (encode buf) items

let rec decode s pos =
  if pos >= String.length s then failwith "Value.decode: truncated";
  let tag = Char.code s.[pos] in
  let pos = pos + 1 in
  match tag with
  | 0 -> (Bottom, pos)
  | 1 ->
      let n, pos = read_varint s pos in
      (Int n, pos)
  | 2 ->
      if pos >= String.length s then failwith "Value.decode: truncated bool";
      (Bool (Char.code s.[pos] <> 0), pos + 1)
  | 3 ->
      let len, pos = read_varint s pos in
      if len < 0 || pos + len > String.length s then
        failwith "Value.decode: truncated string";
      (Str (String.sub s pos len), pos + len)
  | 4 ->
      let n, pos = read_varint s pos in
      (Name n, pos)
  | 5 ->
      let items, pos = decode_list s pos in
      (List items, pos)
  | 6 ->
      let items, pos = decode_list s pos in
      (Set items, pos)
  | 7 ->
      let count, pos = read_varint s pos in
      if count < 0 then failwith "Value.decode: negative count";
      let rec go n pos acc =
        if n = 0 then (List.rev acc, pos)
        else
          let k, pos = decode s pos in
          let v, pos = decode s pos in
          go (n - 1) pos ((k, v) :: acc)
      in
      let bindings, pos = go count pos [] in
      (Pf bindings, pos)
  | 8 ->
      let len, pos = read_varint s pos in
      if len < 0 || pos + len > String.length s then
        failwith "Value.decode: truncated term head";
      let f = String.sub s pos len in
      let args, pos = decode_list s (pos + len) in
      (Term (f, args), pos)
  | tag -> failwith (Printf.sprintf "Value.decode: bad tag %d" tag)

and decode_list s pos =
  let count, pos = read_varint s pos in
  if count < 0 then failwith "Value.decode: negative count";
  let rec go n pos acc =
    if n = 0 then (List.rev acc, pos)
    else
      let v, pos = decode s pos in
      go (n - 1) pos (v :: acc)
  in
  go count pos []

let encoded_size v =
  let buf = Buffer.create 32 in
  encode buf v;
  Buffer.length buf
