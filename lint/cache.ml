(* Incremental cache: per-.cmt digest -> (findings, waived, waivers,
   summary). A warm run skips reading and walking every cmt whose content
   digest is unchanged; the interprocedural passes always rerun over the
   (cached or fresh) summaries — they are cheap relative to the typed-AST
   walk.

   The store is a Marshal blob guarded by a version number; any mismatch
   (version bump, different compiler, torn write) silently discards the
   cache — it is a pure accelerator, never a source of truth. *)

(* bump when Engine.result / Callgraph types or rule semantics change *)
let version = 4

type entry = {
  e_digest : string;  (* Digest.file of the cmt *)
  e_source : string option;  (* None: cmt was skipped (interface/excluded) *)
  e_result : Engine.result option;
}

type t = { mutable entries : (string * entry) list }

let empty () = { entries = [] }

let load path : t =
  match open_in_bin path with
  | exception Sys_error _ -> empty ()
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match
          let v : int = Marshal.from_channel ic in
          if v <> version then None
          else Some (Marshal.from_channel ic : (string * entry) list)
        with
        | Some entries -> { entries }
        | None | (exception _) -> empty ())

let save t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Marshal.to_channel oc version [];
      Marshal.to_channel oc t.entries []);
  Sys.rename tmp path

let find t ~cmt ~digest =
  match List.assoc_opt cmt t.entries with
  | Some e when e.e_digest = digest -> Some e
  | _ -> None

let add t ~cmt entry =
  t.entries <- (cmt, entry) :: List.remove_assoc cmt t.entries
