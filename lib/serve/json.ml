(* Minimal JSON codec for the twilld wire protocol.

   The protocol is line-delimited: one request or response object per
   line, so the printer never emits newlines and the parser takes a
   complete line.  Only the shapes the protocol uses are supported —
   objects, arrays, strings, integers, floats, booleans, null — with
   the standard string escapes.  Hand-rolled on purpose: the toolchain
   image carries no JSON package, and the protocol surface is small
   enough that a dependency would cost more than these ~150 lines. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing ----------------------------------------------------------- *)

(* the escape of a character the printer may not write as-is *)
let escape = function
  | '"' -> "\\\""
  | '\\' -> "\\\\"
  | '\n' -> "\\n"
  | '\r' -> "\\r"
  | '\t' -> "\\t"
  | c -> Printf.sprintf "\\u%04x" (Char.code c)

(* runs of plain characters are copied whole; only escapes go one
   character at a time *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !run (i - !run);
      Buffer.add_string buf (escape c);
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* a bare %g can print "inf"/"nan" (not JSON) or lose precision;
         the wire only carries wall-clock seconds, so fixed-point is fine *)
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6f" f)
      else Buffer.add_string buf "null"
  | Str s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string (v : t) : string =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

type cursor = { s : string; mutable i : int }

let fail c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.i))

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let lit c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else fail c ("expected " ^ word)

let hex_digit = function
  | '0' .. '9' as ch -> Some (Char.code ch - Char.code '0')
  | 'a' .. 'f' as ch -> Some (Char.code ch - Char.code 'a' + 10)
  | 'A' .. 'F' as ch -> Some (Char.code ch - Char.code 'A' + 10)
  | _ -> None

(* the code unit of a \u escape: exactly four hex digits *)
let hex4 c =
  if c.i + 4 > String.length c.s then fail c "short \\u escape";
  let digits = String.sub c.s c.i 4 in
  c.i <- c.i + 4;
  String.fold_left
    (fun acc ch ->
      match (acc, hex_digit ch) with
      | Some a, Some d -> Some ((a * 16) + d)
      | _ -> None)
    (Some 0) digits
  |> function
  | Some u -> u
  | None -> fail c "bad \\u escape"

let is_high u = u >= 0xD800 && u <= 0xDBFF
let is_low u = u >= 0xDC00 && u <= 0xDFFF

(* runs of plain characters are copied whole; only escapes go one
   character at a time *)
let parse_string c =
  expect c '"';
  let n = String.length c.s in
  let buf = Buffer.create 16 in
  let rec go () =
    let run = c.i in
    while c.i < n && c.s.[c.i] <> '"' && c.s.[c.i] <> '\\' do
      c.i <- c.i + 1
    done;
    Buffer.add_substring buf c.s run (c.i - run);
    if c.i >= n then fail c "unterminated string";
    let ch = c.s.[c.i] in
    c.i <- c.i + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | _ -> (
        if c.i >= n then fail c "dangling escape";
        let e = c.s.[c.i] in
        c.i <- c.i + 1;
        match e with
        | '"' | '\\' | '/' ->
            Buffer.add_char buf e;
            go ()
        | 'n' ->
            Buffer.add_char buf '\n';
            go ()
        | 'r' ->
            Buffer.add_char buf '\r';
            go ()
        | 't' ->
            Buffer.add_char buf '\t';
            go ()
        | 'b' ->
            Buffer.add_char buf '\b';
            go ()
        | 'f' ->
            Buffer.add_char buf '\012';
            go ()
        | 'u' ->
            (* a scalar outside the BMP arrives as a high+low surrogate
               pair; an unpaired surrogate is no scalar at all *)
            let u = hex4 c in
            let scalar =
              if is_high u then begin
                if not (c.i + 2 <= n && c.s.[c.i] = '\\' && c.s.[c.i + 1] = 'u')
                then fail c "bad \\u escape";
                c.i <- c.i + 2;
                let lo = hex4 c in
                if not (is_low lo) then fail c "bad \\u escape";
                0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else if is_low u then fail c "bad \\u escape"
              else u
            in
            Buffer.add_utf_8_uchar buf (Uchar.of_int scalar);
            go ()
        | _ -> fail c "unknown escape")
  in
  go ()

let parse_number c =
  let start = c.i in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.i < String.length c.s && is_num_char c.s.[c.i] do
    c.i <- c.i + 1
  done;
  let tok = String.sub c.s start (c.i - start) in
  match int_of_string_opt tok with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        c.i <- c.i + 1;
        Obj []
      end
      else begin
        let kvs = ref [] in
        let rec members () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          kvs := (k, v) :: !kvs;
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              members ()
          | Some '}' -> c.i <- c.i + 1
          | _ -> fail c "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !kvs)
      end
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        c.i <- c.i + 1;
        List []
      end
      else begin
        let xs = ref [] in
        let rec elements () =
          let v = parse_value c in
          xs := v :: !xs;
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              elements ()
          | Some ']' -> c.i <- c.i + 1
          | _ -> fail c "expected ',' or ']'"
        in
        elements ();
        List (List.rev !xs)
      end
  | Some 't' -> lit c "true" (Bool true)
  | Some 'f' -> lit c "false" (Bool false)
  | Some 'n' -> lit c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

let of_string (s : string) : t =
  let c = { s; i = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.i <> String.length s then fail c "trailing garbage";
  v

(* --- accessors ----------------------------------------------------------- *)

let mem k = function Obj kvs -> List.mem_assoc k kvs | _ -> false
let find k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let str_field k j =
  match find k j with Some (Str s) -> Some s | _ -> None

let int_field k j =
  match find k j with Some (Int i) -> Some i | _ -> None

let bool_field k j =
  match find k j with Some (Bool b) -> Some b | _ -> None

let float_field k j =
  match find k j with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let list_field k j =
  match find k j with Some (List l) -> Some l | _ -> None
