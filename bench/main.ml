(* The paper-reproduction harness: regenerates every table and figure of
   the paper and runs its shape checks. Speed is measured by bench/perf,
   not here.

   Environment knobs:
     FERRITE_BENCH_SCALE  fraction of the paper's campaign sizes (default 0.15,
                          ~17,500 injections; 1.0 reproduces the full
                          115,000-injection study)
     FERRITE_BENCH_SEED   campaign seed (default 0x2004)
     FERRITE_ABLATIONS    set to also run the ablation studies *)

module Image = Ferrite_kir.Image

let scale =
  match Sys.getenv_opt "FERRITE_BENCH_SCALE" with
  | Some s -> (try float_of_string s with _ -> 0.15)
  | None -> 0.15

let seed =
  match Sys.getenv_opt "FERRITE_BENCH_SEED" with
  | Some s -> (try Int64.of_string s with _ -> 0x2004L)
  | None -> 0x2004L

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let run_suites () =
  let progress name arch ~done_ ~total =
    if done_ mod 200 = 0 || done_ = total then
      Printf.eprintf "\r[%s %-6s] %6d/%-6d%!" arch name done_ total
  in
  let t0 = Unix.gettimeofday () in
  let p4 =
    Ferrite.Suite.run ~seed
      ~progress:(fun n -> progress n "P4")
      ~scale:(Ferrite.Suite.scaled Image.Cisc scale)
      Image.Cisc
  in
  Printf.eprintf "\n%!";
  let g4 =
    Ferrite.Suite.run ~seed
      ~progress:(fun n -> progress n "G4")
      ~scale:(Ferrite.Suite.scaled Image.Risc scale)
      Image.Risc
  in
  Printf.eprintf "\n%!";
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "Campaigns: %d injections on P4, %d on G4 (scale %.3f of the paper's counts) in %.1f s\n"
    (Ferrite.Suite.total_injections p4)
    (Ferrite.Suite.total_injections g4)
    scale dt;
  (p4, g4)

let () =
  section "Ferrite benchmark harness — DSN 2004 error-sensitivity reproduction";
  let p4, g4 = run_suites () in
  section "Tables";
  print_endline (Ferrite.Report.table1 ());
  print_newline ();
  print_endline (Ferrite.Report.table2 ());
  print_newline ();
  print_endline (Ferrite.Report.table3 ());
  print_newline ();
  print_endline (Ferrite.Report.table4 ());
  print_newline ();
  print_endline (Ferrite.Report.table5 p4);
  print_newline ();
  print_endline (Ferrite.Report.table6 g4);
  section "Figures";
  print_endline (Ferrite.Report.fig4 p4);
  print_endline (Ferrite.Report.fig5 g4);
  print_endline (Ferrite.Report.fig6 ~p4 ~g4);
  print_endline (Ferrite.Report.fig10 ~p4 ~g4);
  print_endline (Ferrite.Report.fig11 ~p4 ~g4);
  print_endline (Ferrite.Report.fig12 ~p4 ~g4);
  print_endline (Ferrite.Report.fig16 ~p4 ~g4);
  print_newline ();
  print_endline (Ferrite.Report.data_geometry ());
  section "Shape checks";
  print_endline (Ferrite.Report.render_checks (Ferrite.Report.shape_checks ~p4 ~g4));
  if Sys.getenv_opt "FERRITE_ABLATIONS" <> None then begin
    section "Ablations";
    let outcomes = List.map (fun s -> Ferrite.Ablation.run s) Ferrite.Ablation.all in
    print_endline (Ferrite.Ablation.report outcomes)
  end
