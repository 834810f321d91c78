(* Dependence-analysis tests: interprocedural alias/points-to results,
   effect summaries, and PDG edge soundness on known programs. *)

open Twill_ir
open Twill_pdg
module Vec = Twill_ir.Vec

let compile src =
  let m = Twill_minic.Minic.compile src in
  Twill_passes.Pipeline.run
    ~opts:{ Twill_passes.Pipeline.default with inline_threshold = 0 }
    m;
  m

(* find the unique instruction satisfying [p] in [f] *)
let find_inst (f : Ir.func) p =
  let found = ref None in
  Ir.iter_insts f (fun i -> if p i && !found = None then found := Some i);
  match !found with Some i -> i | None -> Alcotest.fail "instruction not found"

let alias_tests =
  [
    Alcotest.test_case "distinct globals never alias" `Quick (fun () ->
        let m =
          compile
            "int a[4];\nint b[4];\n\
             int main() { a[1] = 1; b[1] = 2; return a[1] + b[1]; }"
        in
        let al = Memdep.build m in
        let f = Ir.find_func m "main" in
        let store_a =
          find_inst f (fun i ->
              match i.Ir.kind with
              | Ir.Store (addr, _) -> (
                  match Memdep.base_of al f addr with
                  | Memdep.Known [ Memdep.Bglobal "a" ] -> true
                  | _ -> false)
              | _ -> false)
        in
        let store_b =
          find_inst f (fun i ->
              match i.Ir.kind with
              | Ir.Store (addr, _) -> (
                  match Memdep.base_of al f addr with
                  | Memdep.Known [ Memdep.Bglobal "b" ] -> true
                  | _ -> false)
              | _ -> false)
        in
        let addr_of i =
          match i.Ir.kind with Ir.Store (a, _) -> a | _ -> assert false
        in
        Alcotest.(check bool) "no alias" false
          (Memdep.may_alias al f (addr_of store_a) (addr_of store_b)));
    Alcotest.test_case "constant indices into one array disambiguate" `Quick
      (fun () ->
        let m =
          compile "int a[8];\nint main() { a[1] = 1; a[2] = 2; return a[1]; }"
        in
        let al = Memdep.build m in
        let f = Ir.find_func m "main" in
        let stores = ref [] in
        Ir.iter_insts f (fun i ->
            match i.Ir.kind with
            | Ir.Store (addr, _) -> stores := addr :: !stores
            | _ -> ());
        match !stores with
        | [ s1; s2 ] ->
            Alcotest.(check bool) "a[1] vs a[2]" false (Memdep.may_alias al f s1 s2)
        | _ -> Alcotest.fail "expected two stores");
    Alcotest.test_case "array arguments point to the caller's object" `Quick
      (fun () ->
        let m =
          compile
            "int buf[8];\n\
             void fill(int a[], int v) { a[0] = v; }\n\
             int main() { fill(buf, 3); fill(buf, 4); return buf[0]; }"
        in
        let al = Memdep.build m in
        let fill = Ir.find_func m "fill" in
        let st =
          find_inst fill (fun i ->
              match i.Ir.kind with Ir.Store _ -> true | _ -> false)
        in
        let addr = match st.Ir.kind with Ir.Store (a, _) -> a | _ -> assert false in
        (match Memdep.base_of al fill addr with
        | Memdep.Known [ Memdep.Bglobal "buf" ] -> ()
        | Memdep.Known bs ->
            Alcotest.failf "unexpected bases (%d)" (List.length bs)
        | Memdep.Unknown -> Alcotest.fail "unknown base"));
    Alcotest.test_case "never-written globals are read-only" `Quick (fun () ->
        let m =
          compile
            "const int tbl[4] = {1,2,3,4};\nint out[4];\n\
             int main() { for (int i = 0; i < 4; i++) out[i] = tbl[i]; return \
             out[3]; }"
        in
        let al = Memdep.build m in
        Alcotest.(check bool) "tbl read-only" true (Memdep.is_read_only al "tbl");
        Alcotest.(check bool) "out written" false (Memdep.is_read_only al "out"));
  ]

let effects_tests =
  [
    Alcotest.test_case "summaries capture transitive writes" `Quick (fun () ->
        let m =
          compile
            "int g;\n\
             void inner(int v) { g = v; }\n\
             void outer(int v) { inner(v + 1); inner(v + 2); }\n\
             int main() { outer(5); outer(6); return g; }"
        in
        let al = Memdep.build m in
        let eff = Effects.build al m in
        let s = Effects.summary eff "outer" in
        (match s.Effects.writes with
        | Memdep.Known bs ->
            Alcotest.(check bool) "writes g" true
              (List.mem (Memdep.Bglobal "g") bs)
        | Memdep.Unknown -> Alcotest.fail "unexpected unknown"));
    Alcotest.test_case "private scratch is excluded from summaries" `Quick
      (fun () ->
        let m =
          compile
            "int helper(int v) { int tmp[4]; tmp[0] = v; tmp[1] = v * 2; \
             return tmp[0] + tmp[1]; }\n\
             int main() { return helper(3); }"
        in
        let al = Memdep.build m in
        let eff = Effects.build al m in
        let s = Effects.summary eff "helper" in
        Alcotest.(check bool) "no visible writes" true
          (s.Effects.writes = Memdep.Known []));
    Alcotest.test_case "print taints the summary" `Quick (fun () ->
        let m =
          compile
            "void chat(int v) { print(v); }\n\
             int main() { chat(1); chat(2); return 0; }"
        in
        let al = Memdep.build m in
        let eff = Effects.build al m in
        Alcotest.(check bool) "prints" true (Effects.summary eff "chat").Effects.prints);
  ]

let pdg_tests =
  [
    Alcotest.test_case "data edges follow SSA use-def" `Quick (fun () ->
        let m =
          compile
            "int main() { int a = 0; for (int i = 0; i < 4; i++) a += i; int \
             b = a * 7; return b + a; }"
        in
        let al = Memdep.build m in
        let eff = Effects.build al m in
        let f = Ir.find_func m "main" in
        let g = Pdg.build eff f in
        let mul =
          find_inst f (fun i ->
              match i.Ir.kind with Ir.Binop (Ir.Mul, _, _) -> true | _ -> false)
        in
        (* the multiply feeds the return value computation *)
        Alcotest.(check bool) "mul has a data successor" true
          (List.exists (fun (_, k) -> k = Pdg.Data) g.Pdg.succs.(mul.Ir.id)));
    Alcotest.test_case "RAW memory edge between store and load" `Quick
      (fun () ->
        let m =
          compile
            "int g[4];\nint main() { for (int i = 0; i < 4; i++) g[i] = i * \
             3; return g[2]; }"
        in
        let al = Memdep.build m in
        let eff = Effects.build al m in
        let f = Ir.find_func m "main" in
        let g' = Pdg.build eff f in
        let st =
          find_inst f (fun i ->
              match i.Ir.kind with Ir.Store _ -> true | _ -> false)
        in
        Alcotest.(check bool) "store -> load edge" true
          (List.exists (fun (_, k) -> k = Pdg.Mem) g'.Pdg.succs.(st.Ir.id)));
    Alcotest.test_case "read-only table loads carry no memory edges" `Quick
      (fun () ->
        let m =
          compile
            "const int tbl[4] = {1,2,3,4};\nint out;\n\
             int main() { out = 5; int x = tbl[2]; return x + out; }"
        in
        let al = Memdep.build m in
        let eff = Effects.build al m in
        let f = Ir.find_func m "main" in
        let g' = Pdg.build eff f in
        (* the tbl load must have no Mem predecessor *)
        let ok = ref true in
        Ir.iter_insts f (fun i ->
            match i.Ir.kind with
            | Ir.Load a when Memdep.loads_read_only al f a ->
                if List.exists (fun (_, k) -> k = Pdg.Mem) g'.Pdg.preds.(i.Ir.id)
                then ok := false
            | _ -> ());
        Alcotest.(check bool) "no mem deps on read-only loads" true !ok);
    Alcotest.test_case "prints form one SCC" `Quick (fun () ->
        let m =
          compile
            "int main() { for (int i = 0; i < 3; i++) print(i); print(99); \
             return 0; }"
        in
        let al = Memdep.build m in
        let eff = Effects.build al m in
        let f = Ir.find_func m "main" in
        let g' = Pdg.build eff f in
        let prints = ref [] in
        Ir.iter_insts f (fun i ->
            match i.Ir.kind with Ir.Print _ -> prints := i.Ir.id :: !prints | _ -> ());
        let scc =
          Scc.compute ~n:g'.Pdg.nnodes ~succs:(fun v ->
              List.map fst g'.Pdg.succs.(v))
        in
        (match !prints with
        | p0 :: rest ->
            List.iter
              (fun p ->
                Alcotest.(check int) "same component" scc.Scc.comp_of.(p0)
                  scc.Scc.comp_of.(p))
              rest
        | [] -> Alcotest.fail "no prints"));
    Alcotest.test_case "scc condensation is topological" `Quick (fun () ->
        (* random DAG property, deterministic seed *)
        let rst = Random.State.make [| 42 |] in
        for _ = 1 to 50 do
          let n = 2 + Random.State.int rst 30 in
          let edges = ref [] in
          for u = 0 to n - 2 do
            for v = u + 1 to n - 1 do
              if Random.State.int rst 4 = 0 then edges := (u, v) :: !edges
            done
          done;
          let succs u = List.filter_map (fun (a, b) -> if a = u then Some b else None) !edges in
          let r = Scc.compute ~n ~succs in
          (* a DAG: every node its own component, respecting edge order *)
          Alcotest.(check int) "n components" n r.Scc.ncomps;
          List.iter
            (fun (u, v) ->
              Alcotest.(check bool) "topological" true
                (r.Scc.comp_of.(u) < r.Scc.comp_of.(v)))
            !edges
        done);
  ]

let suites =
  [
    ("pdg:alias", alias_tests);
    ("pdg:effects", effects_tests);
    ("pdg:graph", pdg_tests);
  ]
