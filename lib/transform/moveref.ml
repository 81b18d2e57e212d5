type t =
  | Split of Ir.Types.path * int
  | Join of Ir.Types.path
  | Fission of Ir.Types.path * int
  | Interchange of Ir.Types.path
  | Reorder of Ir.Types.path
  | Unroll of Ir.Types.path
  | Vectorize of Ir.Types.path
  | Parallelize of Ir.Types.path
  | Gpu of Ir.Types.path * string
  | Pad of Ir.Types.path * int
  | Unannotate of Ir.Types.path
  | Ssr of Ir.Types.path
  | Frep of Ir.Types.path
  | Split_reduction of Ir.Types.path * int
  | Reuse_dims of string * int
  | Set_storage of string * string
  | Reorder_dims of string * int
  | Composite of {
      cname : string;
      args : (string * string) list;
      anchor : Ir.Types.path;
    }

let path_str = Target.path_str

(* "[0,4]" -> Some [0;4]; "[]" -> Some [] *)
let parse_path s =
  let n = String.length s in
  if n < 2 || s.[0] <> '[' || s.[n - 1] <> ']' then None
  else
    let inner = String.sub s 1 (n - 2) in
    if String.trim inner = "" then Some []
    else
      let parts = String.split_on_char ',' inner in
      let ints = List.filter_map (fun p -> int_of_string_opt (String.trim p)) parts in
      if List.length ints = List.length parts then Some ints else None

let describe = function
  | Split (p, f) -> Printf.sprintf "split_scope(%s factor %d)" (path_str p) f
  | Join p -> Printf.sprintf "join_scopes(%s)" (path_str p)
  | Fission (p, k) -> Printf.sprintf "fission(%s at %d)" (path_str p) k
  | Interchange p -> Printf.sprintf "interchange(%s)" (path_str p)
  | Reorder p -> Printf.sprintf "reorder(%s)" (path_str p)
  | Unroll p -> Printf.sprintf "unroll(%s)" (path_str p)
  | Vectorize p -> Printf.sprintf "vectorize(%s)" (path_str p)
  | Parallelize p -> Printf.sprintf "parallelize(%s)" (path_str p)
  | Gpu (p, dim) -> Printf.sprintf "gpu_map(%s %s)" (path_str p) dim
  | Pad (p, m) -> Printf.sprintf "pad_scope(%s to multiple of %d)" (path_str p) m
  | Unannotate p -> Printf.sprintf "unannotate(%s)" (path_str p)
  | Ssr p -> Printf.sprintf "enable_ssr(%s)" (path_str p)
  | Frep p -> Printf.sprintf "enable_frep(%s)" (path_str p)
  | Split_reduction (p, k) ->
      Printf.sprintf "split_reduction(%s into %d)" (path_str p) k
  | Reuse_dims (b, d) -> Printf.sprintf "reuse_dims(%s dim %d)" b d
  | Set_storage (b, loc) -> Printf.sprintf "set_storage(%s -> %s)" b loc
  | Reorder_dims (b, i) ->
      Printf.sprintf "reorder_buffer_dims(%s swap %d,%d)" b i (i + 1)
  | Composite { cname; args; anchor } ->
      let args_s =
        String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) args)
      in
      Printf.sprintf "composite(%s(%s) @ %s)" cname args_s (path_str anchor)

let xname = function
  | Split _ -> "split_scope"
  | Join _ -> "join_scopes"
  | Fission _ -> "fission"
  | Interchange _ -> "interchange"
  | Reorder _ -> "reorder"
  | Unroll _ -> "unroll"
  | Vectorize _ -> "vectorize"
  | Parallelize _ -> "parallelize"
  | Gpu _ -> "gpu_map"
  | Pad _ -> "pad_scope"
  | Unannotate _ -> "unannotate"
  | Ssr _ -> "enable_ssr"
  | Frep _ -> "enable_frep"
  | Split_reduction _ -> "split_reduction"
  | Reuse_dims _ -> "reuse_dims"
  | Set_storage _ -> "set_storage"
  | Reorder_dims _ -> "reorder_buffer_dims"
  | Composite _ -> "composite"

let anchor = function
  | Split (p, _) | Join p | Fission (p, _) | Interchange p | Reorder p
  | Unroll p | Vectorize p | Parallelize p | Gpu (p, _) | Pad (p, _)
  | Unannotate p | Ssr p | Frep p | Split_reduction (p, _) ->
      Some p
  | Reuse_dims _ | Set_storage _ | Reorder_dims _ -> None
  | Composite { anchor; _ } -> Some anchor

(* Split "name(rest)" into (name, rest); the final ')' closes the move. *)
let split_call d =
  match String.index_opt d '(' with
  | None -> None
  | Some i ->
      let n = String.length d in
      if n = 0 || d.[n - 1] <> ')' then None
      else Some (String.sub d 0 i, String.sub d (i + 1) (n - i - 2))

let words s =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' s)

let of_describe d =
  match split_call d with
  | None -> None
  | Some (name, rest) -> (
      let path_and w =
        match words rest with
        | [ ps; kw; v ] when kw = w -> (
            match (parse_path ps, int_of_string_opt v) with
            | Some p, Some n -> Some (p, n)
            | _ -> None)
        | _ -> None
      in
      let path_only () =
        match words rest with [ ps ] -> parse_path ps | _ -> None
      in
      match name with
      | "split_scope" -> (
          match path_and "factor" with
          | Some (p, f) -> Some (Split (p, f))
          | None -> None)
      | "join_scopes" -> Option.map (fun p -> Join p) (path_only ())
      | "fission" -> (
          match path_and "at" with
          | Some (p, k) -> Some (Fission (p, k))
          | None -> None)
      | "interchange" -> Option.map (fun p -> Interchange p) (path_only ())
      | "reorder" -> Option.map (fun p -> Reorder p) (path_only ())
      | "unroll" -> Option.map (fun p -> Unroll p) (path_only ())
      | "vectorize" -> Option.map (fun p -> Vectorize p) (path_only ())
      | "parallelize" -> Option.map (fun p -> Parallelize p) (path_only ())
      | "gpu_map" -> (
          match words rest with
          | [ ps; dim ] when dim = "grid" || dim = "block" || dim = "warp" ->
              Option.map (fun p -> Gpu (p, dim)) (parse_path ps)
          | _ -> None)
      | "pad_scope" -> (
          match words rest with
          | [ ps; "to"; "multiple"; "of"; m ] -> (
              match (parse_path ps, int_of_string_opt m) with
              | Some p, Some n -> Some (Pad (p, n))
              | _ -> None)
          | _ -> None)
      | "unannotate" -> Option.map (fun p -> Unannotate p) (path_only ())
      | "enable_ssr" -> Option.map (fun p -> Ssr p) (path_only ())
      | "enable_frep" -> Option.map (fun p -> Frep p) (path_only ())
      | "split_reduction" -> (
          match path_and "into" with
          | Some (p, k) -> Some (Split_reduction (p, k))
          | None -> None)
      | "reuse_dims" -> (
          match words rest with
          | [ b; "dim"; d ] ->
              Option.map (fun n -> Reuse_dims (b, n)) (int_of_string_opt d)
          | _ -> None)
      | "set_storage" -> (
          match words rest with
          | [ b; "->"; loc ] -> Some (Set_storage (b, loc))
          | _ -> None)
      | "reorder_buffer_dims" -> (
          match words rest with
          | [ b; "swap"; ij ] -> (
              match String.split_on_char ',' ij with
              | [ i; j ] -> (
                  match (int_of_string_opt i, int_of_string_opt j) with
                  | Some i, Some j when j = i + 1 -> Some (Reorder_dims (b, i))
                  | _ -> None)
              | _ -> None)
          | _ -> None)
      | "composite" -> (
          (* "name(k=v,...) @ [p]" *)
          match String.index_opt rest '(' with
          | None -> None
          | Some i -> (
              let cname = String.sub rest 0 i in
              match String.rindex_opt rest ')' with
              | None -> None
              | Some j when j > i -> (
                  let args_s = String.sub rest (i + 1) (j - i - 1) in
                  let tail = String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) in
                  let args =
                    if String.trim args_s = "" then Some []
                    else
                      let parts = String.split_on_char ',' args_s in
                      let kvs =
                        List.filter_map
                          (fun kv ->
                            match String.index_opt kv '=' with
                            | Some e ->
                                Some
                                  ( String.trim (String.sub kv 0 e),
                                    String.trim
                                      (String.sub kv (e + 1)
                                         (String.length kv - e - 1)) )
                            | None -> None)
                          parts
                      in
                      if List.length kvs = List.length parts then Some kvs
                      else None
                  in
                  match (args, tail) with
                  | Some args, tail when String.length tail > 2 && String.sub tail 0 2 = "@ " -> (
                      match parse_path (String.sub tail 2 (String.length tail - 2)) with
                      | Some anchor -> Some (Composite { cname; args; anchor })
                      | None -> None)
                  | _ -> None)
              | Some _ -> None))
      | _ -> None)

let script_stmt = function
  | Split (p, f) -> (Some p, "split", [ ("factor", string_of_int f) ])
  | Join p -> (Some p, "join", [])
  | Fission (p, k) -> (Some p, "fission", [ ("at", string_of_int k) ])
  | Interchange p -> (Some p, "interchange", [])
  | Reorder p -> (Some p, "reorder", [])
  | Unroll p -> (Some p, "unroll", [])
  | Vectorize p -> (Some p, "vectorize", [])
  | Parallelize p -> (Some p, "parallelize", [])
  | Gpu (p, dim) -> (Some p, "gpu", [ ("dim", dim) ])
  | Pad (p, m) -> (Some p, "pad", [ ("multiple", string_of_int m) ])
  | Unannotate p -> (Some p, "unannotate", [])
  | Ssr p -> (Some p, "ssr", [])
  | Frep p -> (Some p, "frep", [])
  | Split_reduction (p, k) ->
      (Some p, "split_reduction", [ ("into", string_of_int k) ])
  | Reuse_dims (b, d) ->
      (None, "reuse", [ ("buffer", b); ("dim", string_of_int d) ])
  | Set_storage (b, loc) -> (None, "storage", [ ("buffer", b); ("loc", loc) ])
  | Reorder_dims (b, i) ->
      (None, "transpose", [ ("buffer", b); ("swap", string_of_int i) ])
  | Composite { cname; args; anchor } -> (Some anchor, cname, args)
