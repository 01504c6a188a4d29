(* Clocks, order statistics, files and child processes for the benchmark. *)

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* Time [f ()] in seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The Harrell-Davis estimate of quantile [p]: a mean of all the order
   statistics, weighted by a Beta(p(n+1), (1-p)(n+1)) distribution over
   their ranks.  Latency samples come in size classes with wide gaps
   between them, so the plain order statistic jumps a whole class when
   one sample crosses a neighbour; this estimate moves by that sample's
   weight.  The weights are the Beta density integrated numerically
   over each rank's share of [0, 1]. *)
let hd_quantile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    let alpha = p *. float_of_int (n + 1) and beta = (1. -. p) *. float_of_int (n + 1) in
    let steps_per_rank = 200 in
    let h = 1. /. float_of_int (n * steps_per_rank) in
    let num = ref 0. and den = ref 0. in
    for k = 0 to (n * steps_per_rank) - 1 do
      let t = (float_of_int k +. 0.5) *. h in
      let w = exp (((alpha -. 1.) *. log t) +. ((beta -. 1.) *. log (1. -. t))) in
      num := !num +. (w *. a.(k / steps_per_rank));
      den := !den +. w
    done;
    !num /. !den
  end

(* The highest percentile with at least ten samples above it (the one at
   ascending rank [n - 10]), estimated with [hd_quantile] and returned
   with that percentile.  With ten samples or fewer no such percentile
   exists and the maximum (p100) is returned. *)
let tail xs =
  let n = List.length xs in
  if n = 0 then (nan, 0)
  else if n <= 10 then (List.fold_left Float.max neg_infinity xs, 100)
  else (hd_quantile (float_of_int (n - 10) /. float_of_int n) xs, 100 * (n - 10) / n)

let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0. then 0. else a /. b

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all
let file_mb path = float_of_int (Unix.stat path).Unix.st_size /. 1e6

(* One child process, run to completion: its wall time (spawn to reap),
   exit code, and stdout/stderr as captured in files under [scratch]. *)
type proc = { wall : float; code : int; out : string; err : string }

let run_proc ?(env = [||]) ~scratch prog args =
  let out_p = Filename.concat scratch "stdout" in
  let err_p = Filename.concat scratch "stderr" in
  let fd p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out_fd = fd out_p and err_fd = fd err_p in
  let env = Array.append env (Unix.environment ()) in
  let t0 = now_ns () in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) env Unix.stdin
      out_fd err_fd
  in
  let _, status = Unix.waitpid [] pid in
  let wall = secs_since t0 in
  Unix.close out_fd;
  Unix.close err_fd;
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s
  in
  { wall; code; out = read_file out_p; err = read_file err_p }

(* The OCaml runtime's exit-time GC report ([OCAMLRUNPARAM=v=0x400]),
   which is how allocation inside a CLI child is observed from outside. *)
let gc_env = [| "OCAMLRUNPARAM=v=0x400" |]

type gc_report = { minor : float; promoted : float; top_heap_words : float }

let gc_report err =
  let field name =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ k; v ] when String.trim k = name -> float_of_string_opt (String.trim v)
        | _ -> None)
      (String.split_on_char '\n' err)
  in
  match field "minor_words", field "promoted_words", field "top_heap_words" with
  | Some minor, Some promoted, Some top_heap_words -> Some { minor; promoted; top_heap_words }
  | _ -> None

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Run [f] in a forked child and return the float it reports, so that
   [f]'s allocation never grows this process's heap. *)
let in_child (f : unit -> float) : float =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let v = try f () with e -> prerr_endline (Printexc.to_string e); nan in
    let oc = Unix.out_channel_of_descr wr in
    Printf.fprintf oc "%h\n" v;
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let line = In_channel.input_line ic in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    match line, status with
    | Some l, Unix.WEXITED 0 -> float_of_string l
    | _ -> failwith "set-up child failed"
