(* The costar benchmark: one workload per run, untraced (end-to-end
   metrics) or traced (per-layer metrics).

     main.exe --workload bigdoc|corpus|oneshot --seed N --seconds S
              --trace 0|1 --costar PATH --work DIR [--corrupt-expected]
     main.exe --setup-probe [--images DIR]

   The second form is one set-up sample in a fresh process; it prints its
   seconds.  For the first, the last line of standard output is one JSON
   object, {"correct", "attempted", "failed", "metrics": {name: {value,
   unit}}}, and the exit code is 0 only when every checked verdict matched
   its independent answer. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload bigdoc|corpus|oneshot --seed N --seconds S \
     --trace 0|1 --costar PATH --work DIR [--corrupt-expected]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | "--corrupt-expected" :: rest ->
      Inputs.corrupt_expected := true;
      parse rest
    | "--setup-probe" :: rest ->
      Hashtbl.replace args "--setup-probe" "";
      parse rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      Hashtbl.replace args k v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if Hashtbl.mem args "--setup-probe" then begin
    (* One set-up sample in this fresh process; print its seconds. *)
    let images = Hashtbl.find_opt args "--images" in
    Printf.printf "%h\n" (snd (Util.timed (Workloads.setup ?images)));
    exit 0
  end;
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" and seed = int "--seed" and seconds = int "--seconds" in
  let traced = int "--trace" = 1 and costar = get "--costar" in
  if not (List.mem workload [ "bigdoc"; "corpus"; "oneshot" ]) then usage ();
  let work = Filename.concat (get "--work") workload in
  Util.rm_rf work;
  let scratch = Filename.concat work "tmp" in
  Util.mkdir_p scratch;
  let images = Filename.concat work "images" in
  let generated = ref [] in
  let gen () =
    generated :=
      (match workload with
      | "bigdoc" -> Inputs.bigdoc ~work ~seed
      | "corpus" -> Inputs.corpus ~work ~seed
      | _ -> Inputs.oneshot ~work ~seed ~n:Workloads.oneshot_files);
    !generated
  in
  let metrics =
    if traced then begin
      let ms = Layers.run ~costar ~work ~scratch ~seed ~gen in
      if workload = "bigdoc" then Workloads.bigdoc_oracle !generated;
      ms
    end
    else begin
      let images = if workload = "oneshot" then Some images else None in
      Option.iter Util.mkdir_p images;
      (* Set-up samples, spread over the run: the first before the rounds
         (oneshot's requests need its images), the others between them, so
         that the rounds too are spread in time.  A set-up takes a few
         tenths of a second, so nine samples steady its median; oneshot's
         also emits four images, some seconds each, so it takes three. *)
      let samples = if workload = "oneshot" then 3 else 9 in
      let setup = ref [ Workloads.setup_sample ~scratch ?images () ] in
      let sample_until n =
        while List.length !setup < n do
          setup := Workloads.setup_sample ~scratch ?images () :: !setup
        done
      in
      let files = gen () in
      if workload <> "bigdoc" then Inputs.write_files files;
      let plan =
        match workload with
        | "bigdoc" -> Workloads.bigdoc ~seconds ~docs:files
        | "corpus" -> Workloads.corpus ~costar ~scratch ~seconds ~files
        | _ -> Workloads.oneshot ~costar ~scratch ~images:(Option.get images) ~seconds ~files
      in
      let rounds = plan.Workloads.rounds in
      for i = 0 to rounds - 1 do
        sample_until (1 + (i * (samples - 1) / rounds));
        plan.Workloads.round i
      done;
      sample_until samples;
      let ms = plan.Workloads.finish () in
      if workload = "bigdoc" then Workloads.bigdoc_oracle files;
      Workloads.m "setup_s" "s" (Util.median !setup) :: ms
    end
  in
  let failed = List.length !Inputs.failures in
  let attempted = max 1 (max failed !Inputs.attempted) in
  List.iter (fun m -> Printf.printf "failure: %s\n" m) (List.rev !Inputs.failures);
  List.iter
    (fun { Workloads.name; value; unit_ } -> Printf.printf "metric %s %.6g %s\n" name value unit_)
    metrics;
  Printf.printf "failed_ratio %.6g (%d of %d checked verdicts)\n"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun { Workloads.name; value; unit_ } ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit_)
          metrics));
  exit (if failed = 0 then 0 else 1)
