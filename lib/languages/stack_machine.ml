open Lg_support

type outcome = { output : int list; steps : int }

exception Stuck of string

let stuck fmt = Format.kasprintf (fun s -> raise (Stuck s)) fmt

let instructions v =
  match Value.as_list v with
  | Some items -> Array.of_list items
  | None -> stuck "program is not a list: %s" (Value.to_string v)

let instruction_count program = Array.length (instructions program)

let norm = Value.normalize_name

let run ?(fuel = 1_000_000) program =
  let code = instructions program in
  let stack = ref [] in
  let store : (Value.t, int) Hashtbl.t = Hashtbl.create 16 in
  let output = ref [] in
  let steps = ref 0 in
  let push n = stack := n :: !stack in
  let pop () =
    match !stack with
    | n :: rest ->
        stack := rest;
        n
    | [] -> stuck "stack underflow"
  in
  let pc = ref 0 in
  while !pc < Array.length code do
    if !steps >= fuel then stuck "out of fuel after %d steps" !steps;
    incr steps;
    let next = !pc + 1 in
    (match code.(!pc) with
    | Value.Term (op, args) -> (
        match (norm op, args) with
        | "push", [ Value.Int n ] ->
            push n;
            pc := next
        | "load", [ key ] ->
            push (Option.value ~default:0 (Hashtbl.find_opt store key));
            pc := next
        | "store", [ key ] ->
            Hashtbl.replace store key (pop ());
            pc := next
        | "add", [] ->
            let b = pop () and a = pop () in
            push (a + b);
            pc := next
        | "sub", [] ->
            let b = pop () and a = pop () in
            push (a - b);
            pc := next
        | "mul", [] ->
            let b = pop () and a = pop () in
            push (a * b);
            pc := next
        | "lt", [] ->
            let b = pop () and a = pop () in
            push (if a < b then 1 else 0);
            pc := next
        | "gt", [] ->
            let b = pop () and a = pop () in
            push (if a > b then 1 else 0);
            pc := next
        | "eq", [] ->
            let b = pop () and a = pop () in
            push (if a = b then 1 else 0);
            pc := next
        | "not", [] ->
            push (if pop () = 0 then 1 else 0);
            pc := next
        | "jmpf", [ Value.Int k ] ->
            if pop () = 0 then pc := next + k else pc := next
        | "jmp", [ Value.Int k ] -> pc := next + k
        | "writeln", [] ->
            output := pop () :: !output;
            pc := next
        | op, _ -> stuck "unknown instruction %s" op)
    | v -> stuck "not an instruction: %s" (Value.to_string v));
    if !pc < 0 || !pc > Array.length code then stuck "jump out of range"
  done;
  { output = List.rev !output; steps = !steps }

let disassemble program =
  let code = instructions program in
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i ins ->
      Buffer.add_string buf (Printf.sprintf "%4d  %s\n" i (Value.to_string ins)))
    code;
  Buffer.contents buf
