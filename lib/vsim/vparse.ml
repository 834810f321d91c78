(* Lexer and recursive-descent parser for the emitted Verilog subset.
   The grammar mirrors what Vemit/Vruntime print — ANSI module headers,
   reg/wire declarations (with vectors and memories), assign, single-clock
   always blocks, if/case/for, and named-port instantiation with parameter
   overrides.  Everything else is a Parse_error with a line number. *)

exception Parse_error of string * int

type expr =
  | Num of int * int * bool
  | Id of string
  | Index of string * expr
  | Unop of string * expr
  | Binop of string * expr * expr
  | Ternary of expr * expr * expr
  | Concat of expr list
  | Sysfun of string * expr

type lval = { base : string; index : expr option; lline : int }

type stmt =
  | Block of stmt list
  | If of expr * stmt * stmt option
  | Case of expr * (expr list * stmt) list * stmt option
  | For of lval * expr * expr * lval * expr * stmt
  | Assign of lval * bool * expr

type net_kind = Wire | Reg | Integer
type port_dir = In | Out | Local

type decl = {
  dname : string;
  dsigned : bool;
  drange : (expr * expr) option;
  darray : (expr * expr) option;
  dkind : net_kind;
  dport : port_dir;
  dline : int;
}

type item =
  | Decl of decl
  | Param of string * expr
  | Cassign of lval * expr
  | Always of string * stmt
  | Instance of {
      imod : string;
      iname : string;
      iparams : (string * expr) list;
      iports : (string * expr option) list;
      iline : int;
    }

type modul = {
  mname : string;
  mparams : (string * expr) list;
  mitems : item list;
  mline : int;
}

type design = modul list

(* --- lexer --------------------------------------------------------------- *)

type tok = Tid of string | Tnum of int * int * bool | Tsym of string

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let lex (src : string) : (tok * int) array =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = out := (t, !line) :: !out in
  let digits_of base =
    (* reads [0-9a-fA-F_]+ in the given base, returns the value *)
    let v = ref 0 in
    let any = ref false in
    let ok = ref true in
    while
      !ok && !i < n
      &&
      let c = src.[!i] in
      is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c = '_'
    do
      let c = src.[!i] in
      if c = '_' then incr i
      else begin
        let d =
          if is_digit c then Char.code c - Char.code '0'
          else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
          else Char.code c - Char.code 'A' + 10
        in
        if d >= base then ok := false
        else begin
          v := (!v * base) + d;
          any := true;
          incr i
        end
      end
    done;
    if not !any then raise (Parse_error ("malformed numeric literal", !line));
    !v
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (src.[!i] = '*' && src.[!i + 1] = '/') do
        if src.[!i] = '\n' then incr line;
        incr i
      done;
      i := !i + 2
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      push (Tid (String.sub src start (!i - start)))
    end
    else if is_digit c then begin
      let v = digits_of 10 in
      if !i < n && src.[!i] = '\'' then begin
        (* sized literal: <width>'[s]<base><digits>, possibly negative *)
        incr i;
        let signed = !i < n && (src.[!i] = 's' || src.[!i] = 'S') in
        if signed then incr i;
        let base =
          if !i >= n then raise (Parse_error ("truncated literal", !line))
          else
            match src.[!i] with
            | 'b' | 'B' -> 2
            | 'o' | 'O' -> 8
            | 'd' | 'D' -> 10
            | 'h' | 'H' -> 16
            | c ->
                raise
                  (Parse_error
                     (Printf.sprintf "bad literal base '%c'" c, !line))
        in
        incr i;
        let neg = !i < n && src.[!i] = '-' in
        if neg then incr i;
        let mag = digits_of base in
        push (Tnum ((if neg then -mag else mag), v, signed))
      end
      else push (Tnum (v, 0, true))
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      let three = if !i + 2 < n then String.sub src !i 3 else "" in
      if three = ">>>" then begin
        push (Tsym ">>>");
        i := !i + 3
      end
      else if
        List.mem two [ "<="; ">="; "=="; "!="; "&&"; "||"; "<<"; ">>" ]
      then begin
        push (Tsym two);
        i := !i + 2
      end
      else if String.contains "()[]{}#@.,;:?+-*/%&|^!~<>=" c then begin
        push (Tsym (String.make 1 c));
        incr i
      end
      else
        raise (Parse_error (Printf.sprintf "stray character '%c'" c, !line))
    end
  done;
  Array.of_list (List.rev !out)

(* --- parser -------------------------------------------------------------- *)

type st = { toks : (tok * int) array; mutable pos : int }

let line_at st =
  if st.pos < Array.length st.toks then snd st.toks.(st.pos)
  else if Array.length st.toks = 0 then 1
  else snd st.toks.(Array.length st.toks - 1)

let fail st msg = raise (Parse_error (msg, line_at st))

let peek st =
  if st.pos < Array.length st.toks then Some (fst st.toks.(st.pos)) else None

let peek2 st =
  if st.pos + 1 < Array.length st.toks then Some (fst st.toks.(st.pos + 1))
  else None

let next st =
  match peek st with
  | Some t ->
      st.pos <- st.pos + 1;
      t
  | None -> fail st "unexpected end of input"

let eat_sym st s =
  match next st with
  | Tsym s' when s' = s -> ()
  | _ ->
      st.pos <- st.pos - 1;
      fail st (Printf.sprintf "expected '%s'" s)

let eat_kw st k =
  match next st with
  | Tid k' when k' = k -> ()
  | _ ->
      st.pos <- st.pos - 1;
      fail st (Printf.sprintf "expected '%s'" k)

let ident st =
  match next st with
  | Tid s -> s
  | _ ->
      st.pos <- st.pos - 1;
      fail st "expected identifier"

let at_sym st s = match peek st with Some (Tsym s') -> s' = s | _ -> false
let at_kw st k = match peek st with Some (Tid k') -> k' = k | _ -> false

(* [inside st ~opener ~line closer] is true until [closer] comes up
   next.  Running out of input inside the construct is reported at its
   [opener] on [line], not at the end of the text. *)
let inside st ~opener ~line closer =
  match peek st with
  | Some (Tid k) when k = closer -> false
  | Some _ -> true
  | None ->
      raise
        (Parse_error
           (Printf.sprintf "'%s' is never closed by '%s'" opener closer, line))

(* words of the subset that cannot start a module item (nor name an
   instantiated module) *)
let keywords =
  [ "module"; "begin"; "end"; "if"; "else"; "case"; "endcase"; "default";
    "for"; "posedge"; "signed" ]

(* expression precedence climbing *)
let rec expr st = ternary st

and ternary st =
  let c = p_or st in
  if at_sym st "?" then begin
    ignore (next st);
    let a = ternary st in
    eat_sym st ":";
    let b = ternary st in
    Ternary (c, a, b)
  end
  else c

and p_or st = binl st [ "||" ] p_and
and p_and st = binl st [ "&&" ] p_bor
and p_bor st = binl st [ "|" ] p_bxor
and p_bxor st = binl st [ "^" ] p_band
and p_band st = binl st [ "&" ] p_eq
and p_eq st = binl st [ "=="; "!=" ] p_rel
and p_rel st = binl st [ "<"; "<="; ">"; ">=" ] p_shift
and p_shift st = binl st [ "<<"; ">>"; ">>>" ] p_add
and p_add st = binl st [ "+"; "-" ] p_mul
and p_mul st = binl st [ "*"; "/"; "%" ] p_unary

and binl st ops sub =
  let a = ref (sub st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (Tsym s) when List.mem s ops ->
        ignore (next st);
        a := Binop (s, !a, sub st)
    | _ -> continue := false
  done;
  !a

and p_unary st =
  match peek st with
  | Some (Tsym "-") ->
      ignore (next st);
      Unop ("-", p_unary st)
  | Some (Tsym "!") ->
      ignore (next st);
      Unop ("!", p_unary st)
  | Some (Tsym "~") ->
      ignore (next st);
      Unop ("~", p_unary st)
  | _ -> primary st

and primary st =
  match next st with
  | Tnum (v, w, s) -> Num (v, w, s)
  | Tsym "(" ->
      let e = expr st in
      eat_sym st ")";
      e
  | Tsym "{" ->
      let rec go acc =
        let e = expr st in
        if at_sym st "," then begin
          ignore (next st);
          go (e :: acc)
        end
        else begin
          eat_sym st "}";
          List.rev (e :: acc)
        end
      in
      Concat (go [])
  | Tid f when String.length f > 0 && f.[0] = '$' ->
      eat_sym st "(";
      let e = expr st in
      eat_sym st ")";
      Sysfun (f, e)
  | Tid x ->
      if at_sym st "[" then begin
        ignore (next st);
        let e = expr st in
        eat_sym st "]";
        Index (x, e)
      end
      else Id x
  | _ ->
      st.pos <- st.pos - 1;
      fail st "expected expression"

(* case labels must not swallow the arm's ':' — stop below the ternary *)
let label_expr st = p_or st

let lvalue st =
  let lline = line_at st in
  let base = ident st in
  if at_sym st "[" then begin
    ignore (next st);
    let e = expr st in
    eat_sym st "]";
    { base; index = Some e; lline }
  end
  else { base; index = None; lline }

let assignment st lv =
  (* lv already consumed; parse ('='|'<=') rhs ';' *)
  let nonblocking =
    match next st with
    | Tsym "=" -> false
    | Tsym "<=" -> true
    | _ ->
        st.pos <- st.pos - 1;
        fail st "expected '=' or '<='"
  in
  let rhs = expr st in
  eat_sym st ";";
  Assign (lv, nonblocking, rhs)

let rec stmt st =
  match peek st with
  | Some (Tid "begin") ->
      let line = line_at st in
      ignore (next st);
      let acc = ref [] in
      while inside st ~opener:"begin" ~line "end" do
        acc := stmt st :: !acc
      done;
      eat_kw st "end";
      Block (List.rev !acc)
  | Some (Tid "if") ->
      ignore (next st);
      eat_sym st "(";
      let c = expr st in
      eat_sym st ")";
      let t = stmt st in
      if at_kw st "else" then begin
        ignore (next st);
        If (c, t, Some (stmt st))
      end
      else If (c, t, None)
  | Some (Tid "case") ->
      let line = line_at st in
      ignore (next st);
      eat_sym st "(";
      let scrut = expr st in
      eat_sym st ")";
      let arms = ref [] in
      let default = ref None in
      while inside st ~opener:"case" ~line "endcase" do
        if at_kw st "default" then begin
          ignore (next st);
          eat_sym st ":";
          default := Some (stmt st)
        end
        else begin
          let rec labels acc =
            let l = label_expr st in
            if at_sym st "," then begin
              ignore (next st);
              labels (l :: acc)
            end
            else List.rev (l :: acc)
          in
          let ls = labels [] in
          eat_sym st ":";
          arms := (ls, stmt st) :: !arms
        end
      done;
      eat_kw st "endcase";
      Case (scrut, List.rev !arms, !default)
  | Some (Tid "for") ->
      ignore (next st);
      eat_sym st "(";
      let ilv = lvalue st in
      eat_sym st "=";
      let ie = expr st in
      eat_sym st ";";
      let cond = expr st in
      eat_sym st ";";
      let slv = lvalue st in
      eat_sym st "=";
      let se = expr st in
      eat_sym st ")";
      For (ilv, ie, cond, slv, se, stmt st)
  | Some (Tid _) -> assignment st (lvalue st)
  | _ -> fail st "expected statement"

(* one declaration's attributes applied to a comma list of names *)
let decl_names st ~dkind ~dport ~dsigned ~drange =
  let rec go acc =
    let dline = line_at st in
    let dname = ident st in
    let darray =
      if at_sym st "[" then begin
        ignore (next st);
        let a = expr st in
        eat_sym st ":";
        let b = expr st in
        eat_sym st "]";
        Some (a, b)
      end
      else None
    in
    let d = { dname; dsigned; drange; darray; dkind; dport; dline } in
    if at_sym st "," then begin
      ignore (next st);
      go (d :: acc)
    end
    else List.rev (d :: acc)
  in
  go []

let opt_signed st =
  if at_kw st "signed" then begin
    ignore (next st);
    true
  end
  else false

let opt_range st =
  if at_sym st "[" then begin
    ignore (next st);
    let a = expr st in
    eat_sym st ":";
    let b = expr st in
    eat_sym st "]";
    Some (a, b)
  end
  else None

(* header port declaration: (input|output) [wire|reg] [signed] [range] name *)
let port_decl st =
  let dport =
    match next st with
    | Tid "input" -> In
    | Tid "output" -> Out
    | _ ->
        st.pos <- st.pos - 1;
        fail st "expected 'input' or 'output'"
  in
  let dkind =
    if at_kw st "wire" then (
      ignore (next st);
      Wire)
    else if at_kw st "reg" then (
      ignore (next st);
      Reg)
    else Wire
  in
  let dsigned = opt_signed st in
  let drange = opt_range st in
  let dline = line_at st in
  let dname = ident st in
  { dname; dsigned; drange; darray = None; dkind; dport; dline }

let param_binding st =
  eat_kw st "parameter";
  let name = ident st in
  eat_sym st "=";
  (name, expr st)

let instance st imod iline =
  let iparams =
    if at_sym st "#" then begin
      ignore (next st);
      eat_sym st "(";
      let rec go acc =
        eat_sym st ".";
        let p = ident st in
        eat_sym st "(";
        let e = expr st in
        eat_sym st ")";
        if at_sym st "," then begin
          ignore (next st);
          go ((p, e) :: acc)
        end
        else begin
          eat_sym st ")";
          List.rev ((p, e) :: acc)
        end
      in
      go []
    end
    else []
  in
  let iname = ident st in
  eat_sym st "(";
  let rec go acc =
    eat_sym st ".";
    let p = ident st in
    eat_sym st "(";
    let e = if at_sym st ")" then None else Some (expr st) in
    eat_sym st ")";
    if at_sym st "," then begin
      ignore (next st);
      go ((p, e) :: acc)
    end
    else begin
      eat_sym st ")";
      List.rev ((p, e) :: acc)
    end
  in
  let iports = go [] in
  eat_sym st ";";
  Instance { imod; iname; iparams; iports; iline }

let item st : item list =
  let l = line_at st in
  match peek st with
  | Some (Tid ("wire" | "reg" | "input" | "output" | "integer")) -> (
      match next st with
      | Tid "integer" ->
          let ds =
            decl_names st ~dkind:Integer ~dport:Local ~dsigned:true
              ~drange:None
          in
          eat_sym st ";";
          List.map (fun d -> Decl d) ds
      | Tid (("wire" | "reg") as k) ->
          let dkind = if k = "reg" then Reg else Wire in
          let dsigned = opt_signed st in
          let drange = opt_range st in
          let ds = decl_names st ~dkind ~dport:Local ~dsigned ~drange in
          eat_sym st ";";
          List.map (fun d -> Decl d) ds
      | Tid (("input" | "output") as k) ->
          let dport = if k = "input" then In else Out in
          let dkind =
            if at_kw st "wire" then (
              ignore (next st);
              Wire)
            else if at_kw st "reg" then (
              ignore (next st);
              Reg)
            else Wire
          in
          let dsigned = opt_signed st in
          let drange = opt_range st in
          let ds = decl_names st ~dkind ~dport ~dsigned ~drange in
          eat_sym st ";";
          List.map (fun d -> Decl d) ds
      | _ -> assert false)
  | Some (Tid ("parameter" | "localparam")) ->
      ignore (next st);
      let rec go acc =
        let name = ident st in
        eat_sym st "=";
        let e = expr st in
        if at_sym st "," then begin
          ignore (next st);
          go ((name, e) :: acc)
        end
        else begin
          eat_sym st ";";
          List.rev ((name, e) :: acc)
        end
      in
      List.map (fun (n, e) -> Param (n, e)) (go [])
  | Some (Tid "assign") ->
      ignore (next st);
      let lv = lvalue st in
      eat_sym st "=";
      let e = expr st in
      eat_sym st ";";
      [ Cassign (lv, e) ]
  | Some (Tid "always") ->
      ignore (next st);
      eat_sym st "@";
      eat_sym st "(";
      eat_kw st "posedge";
      let clk = ident st in
      eat_sym st ")";
      [ Always (clk, stmt st) ]
  | Some (Tid k) when List.mem k keywords ->
      fail st (Printf.sprintf "unexpected '%s'" k)
  | Some (Tid _) -> [ instance st (ident st) l ]
  | _ -> fail st "expected module item"

let modul st =
  let mline = line_at st in
  eat_kw st "module";
  let mname = ident st in
  let mparams =
    if at_sym st "#" then begin
      ignore (next st);
      eat_sym st "(";
      let rec go acc =
        let p = param_binding st in
        if at_sym st "," then begin
          ignore (next st);
          go (p :: acc)
        end
        else begin
          eat_sym st ")";
          List.rev (p :: acc)
        end
      in
      go []
    end
    else []
  in
  let ports = ref [] in
  if at_sym st "(" then begin
    ignore (next st);
    if at_sym st ")" then ignore (next st)
    else begin
      let rec go () =
        ports := port_decl st :: !ports;
        if at_sym st "," then begin
          ignore (next st);
          (* a bare name continues the previous declaration's attributes *)
          match (peek st, peek2 st) with
          | Some (Tid ("input" | "output")), _ -> go ()
          | Some (Tid n), (Some (Tsym (")" | ",")) | None) ->
              ignore (next st);
              (match !ports with
              | p :: _ -> ports := { p with dname = n } :: !ports
              | [] -> fail st "port list cannot start with a bare name");
              if at_sym st "," then go_bare ()
          | _ -> go ()
        end
      and go_bare () =
        ignore (next st);
        match (peek st, peek2 st) with
        | Some (Tid ("input" | "output")), _ -> go ()
        | Some (Tid n), _ ->
            ignore (next st);
            (match !ports with
            | p :: _ -> ports := { p with dname = n } :: !ports
            | [] -> ());
            if at_sym st "," then go_bare ()
        | _ -> fail st "expected port declaration"
      in
      go ();
      eat_sym st ")"
    end
  end;
  eat_sym st ";";
  let items = ref (List.rev_map (fun d -> Decl d) !ports) in
  while inside st ~opener:"module" ~line:mline "endmodule" do
    items := List.rev_append (item st) !items
  done;
  eat_kw st "endmodule";
  { mname; mparams; mitems = List.rev !items; mline }

let parse (src : string) : design =
  let st = { toks = lex src; pos = 0 } in
  let mods = ref [] in
  while st.pos < Array.length st.toks do
    mods := modul st :: !mods
  done;
  List.rev !mods

let find_module (d : design) (name : string) : modul =
  List.find (fun m -> m.mname = name) d
