(* Shared QCheck → Alcotest adapter.

   qcheck-alcotest's [to_alcotest] self-initializes a *random* seed
   whenever QCHECK_SEED is not set, which made the property suites
   non-reproducible in CI: a failure seen once could not be replayed.
   Every suite now runs with a fixed default seed; QCHECK_SEED still
   overrides it, and the effective seed is printed when a property
   fails so the exact run can be reproduced with

     QCHECK_SEED=<seed> ./_build/default/test/test_<suite>.exe *)

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v -> v
      | None ->
        Printf.eprintf "[qcheck] ignoring malformed QCHECK_SEED=%S\n%!" s;
        42)
  | None -> 42

let to_alcotest test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  let run () =
    try run ()
    with e ->
      Printf.eprintf
        "[qcheck] property %S failed under seed %d; reproduce with QCHECK_SEED=%d\n%!"
        name seed seed;
      raise e
  in
  (name, speed, run)

let qsuite name tests = (name, List.map to_alcotest tests)

(* Every committed regression case, as (file, case) in file order.
   dune runtest runs the suites next to the corpus; under `dune exec`
   fall back to the directory holding the test binary. *)
let corpus_cases () =
  let dir =
    if Sys.file_exists "corpus" then "corpus"
    else Filename.concat (Filename.dirname Sys.executable_name) "corpus"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rtl")
  |> List.sort compare
  |> List.map (fun f -> (f, Rtlsat_fuzz.Case.of_file (Filename.concat dir f)))
