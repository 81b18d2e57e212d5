open Transform

type composite = {
  cname : string;
  doc : string;
  params : (string * string) list;
  make : (string * string) list -> (Engine.transfo, string) result;
  variants : Xforms.caps -> (string * string) list list;
}

(* ------------------------------------------------------------------ *)
(* Expansion plumbing                                                  *)
(* ------------------------------------------------------------------ *)

(* Composites expand against atomic moves only (never against
   caps.extra), so a macro-move can never contain another macro-move.
   An atomic move is found at its own site (Xforms.resolve_move), not
   by enumerating every atomic move of the state. *)
let find_atomic caps prog (m : Moveref.t) : (Xforms.instance, string) result =
  let found =
    match m with
    | Moveref.Composite _ -> None
    | _ -> Xforms.resolve_move caps prog m
  in
  match found with
  | Some i -> Ok i
  | None -> Error (Moveref.describe m ^ ": not applicable here")

let step prog (inst : Xforms.instance) : (Ir.Prog.t, string) result =
  match inst.apply prog with
  | next -> Ok next
  | exception Xforms.Not_applicable m -> Error m
  | exception Ir.Prog.Invalid_path p ->
      Error ("path vanished: " ^ Target.path_str p)

(* Expand a static sequence of move references, validating each against
   the intermediate state it will actually see. *)
let plan caps prog (mrefs : Moveref.t list) :
    (Xforms.instance list, string) result =
  let rec go p acc = function
    | [] -> Ok (List.rev acc)
    | m :: rest -> (
        match find_atomic caps p m with
        | Error e -> Error e
        | Ok inst -> (
            match step p inst with
            | Error e -> Error e
            | Ok q -> go q (inst :: acc) rest))
  in
  go prog [] mrefs

let ( let* ) = Result.bind

let int_arg args name =
  match List.assoc_opt name args with
  | None -> Error (Printf.sprintf "missing argument %s=<int>" name)
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "argument %s: not an integer: %s" name v))

let str_arg args name =
  match List.assoc_opt name args with
  | None -> Error (Printf.sprintf "missing argument %s=<name>" name)
  | Some v -> Ok v

let no_anchor_err tname =
  Printf.sprintf "%s needs an anchor: use 'at <selector> do %s(...)'" tname
    tname

let node_anchored tname targs expand_at : Engine.transfo =
  {
    tname;
    targs;
    expand =
      (fun caps prog ~anchor ->
        if anchor = [] then Error (no_anchor_err tname)
        else expand_at caps prog anchor);
  }

(* ------------------------------------------------------------------ *)
(* The composites                                                      *)
(* ------------------------------------------------------------------ *)

let tile_and_unroll ~f ~u =
  node_anchored "tile_and_unroll"
    [ ("f", string_of_int f); ("u", string_of_int u) ]
    (fun caps prog anchor ->
      if u < 2 then Error "u must be >= 2"
      else if f mod u <> 0 then Error "f must be a multiple of u"
      else
        let mrefs =
          if f = u then
            [ Moveref.Split (anchor, f); Moveref.Unroll (anchor @ [ 0 ]) ]
          else
            [
              Moveref.Split (anchor, f);
              Moveref.Split (anchor @ [ 0 ], u);
              Moveref.Unroll (anchor @ [ 0; 0 ]);
            ]
        in
        plan caps prog mrefs)

let tile_and_vectorize ~lanes =
  node_anchored "tile_and_vectorize"
    [ ("lanes", string_of_int lanes) ]
    (fun caps prog anchor ->
      plan caps prog
        [ Moveref.Split (anchor, lanes); Moveref.Vectorize (anchor @ [ 0 ]) ])

let tile_and_parallelize ~f =
  node_anchored "tile_and_parallelize"
    [ ("f", string_of_int f) ]
    (fun caps prog anchor ->
      plan caps prog
        [ Moveref.Split (anchor, f); Moveref.Parallelize anchor ])

let fuse_chain () =
  node_anchored "fuse_chain" [] (fun caps prog anchor ->
      (* keep fusing the anchor with its (shifting) next sibling while
         legal; refuse only when not even one fusion applies *)
      let rec go p acc =
        match find_atomic caps p (Moveref.Join anchor) with
        | Error e -> if acc = [] then Error e else Ok (List.rev acc)
        | Ok inst -> (
            match step p inst with
            | Error e -> if acc = [] then Error e else Ok (List.rev acc)
            | Ok q -> go q (inst :: acc))
      in
      go prog [])

let hoist_memset () =
  node_anchored "hoist_memset" [] (fun caps prog anchor ->
      match Ir.Prog.node_at prog anchor with
      | exception Ir.Prog.Invalid_path _ -> Error "anchor path does not exist"
      | Ir.Types.Stmt _ -> Error "anchor is a statement, not a scope"
      | Ir.Types.Scope sc -> (
          match sc.body with
          | Ir.Types.Stmt { rhs = Ir.Types.Const _; _ } :: _ :: _ ->
              plan caps prog [ Moveref.Fission (anchor, 1) ]
          | _ ->
              Error
                "anchor body does not start with a constant initialization \
                 followed by more work"))

let split_reduce_unroll ~k =
  node_anchored "split_reduce_unroll"
    [ ("into", string_of_int k) ]
    (fun caps prog anchor ->
      match List.rev anchor with
      | [] -> Error "anchor path is empty"
      | last :: rev_parent ->
          let parent = List.rev rev_parent in
          (* split_reduction splices [init; main; combine] in place of the
             anchor; the accumulator tile is main's sole child *)
          let main = parent @ [ last + 1 ] in
          plan caps prog
            [
              Moveref.Split_reduction (anchor, k);
              Moveref.Unroll (main @ [ 0 ]);
            ])

let all : composite list =
  [
    {
      cname = "tile_and_unroll";
      doc = "split by f, split the tile by u when u < f, unroll the tile";
      params = [ ("f", "tile factor"); ("u", "unroll factor, divides f") ];
      make =
        (fun args ->
          let* f = int_arg args "f" in
          let* u = int_arg args "u" in
          Ok (tile_and_unroll ~f ~u));
      variants =
        (fun caps ->
          List.filter_map
            (fun f ->
              if f >= 2 && f <= caps.Xforms.max_unroll then
                Some [ ("f", string_of_int f); ("u", string_of_int f) ]
              else None)
            caps.Xforms.split_factors);
    };
    {
      cname = "tile_and_vectorize";
      doc = "split by the lane width and vectorize the tile";
      params = [ ("lanes", "vector width, a permitted lane count") ];
      make =
        (fun args ->
          let* lanes = int_arg args "lanes" in
          Ok (tile_and_vectorize ~lanes));
      variants =
        (fun caps ->
          List.map
            (fun l -> [ ("lanes", string_of_int l) ])
            caps.Xforms.vec_lanes);
    };
    {
      cname = "tile_and_parallelize";
      doc = "split by f and run the outer scope on CPU threads";
      params = [ ("f", "tile factor") ];
      make =
        (fun args ->
          let* f = int_arg args "f" in
          Ok (tile_and_parallelize ~f));
      variants =
        (fun caps ->
          if caps.Xforms.can_parallelize then
            List.map
              (fun f -> [ ("f", string_of_int f) ])
              caps.Xforms.split_factors
          else []);
    };
    {
      cname = "fuse_chain";
      doc = "fuse the anchor with following equal-size siblings, repeatedly";
      params = [];
      make = (fun _ -> Ok (fuse_chain ()));
      variants = (fun _ -> [ [] ]);
    };
    {
      cname = "hoist_memset";
      doc = "distribute a leading constant initialization into its own loop";
      params = [];
      make = (fun _ -> Ok (hoist_memset ()));
      variants = (fun _ -> [ [] ]);
    };
    {
      cname = "split_reduce_unroll";
      doc = "k partial accumulators for a reduction, accumulator tile unrolled";
      params = [ ("into", "accumulator count") ];
      make =
        (fun args ->
          let* k = int_arg args "into" in
          Ok (split_reduce_unroll ~k));
      variants =
        (fun caps ->
          List.map
            (fun k -> [ ("into", string_of_int k) ])
            caps.Xforms.reduction_split);
    };
  ]

let names = List.map (fun c -> c.cname) all
let find name = List.find_opt (fun c -> c.cname = name) all

(* ------------------------------------------------------------------ *)
(* Atomic wrappers: script surface names for single moves              *)
(* ------------------------------------------------------------------ *)

let atomic tname targs (mk : Ir.Types.path -> (Moveref.t, string) result) :
    Engine.transfo =
  {
    tname;
    targs;
    expand =
      (fun caps prog ~anchor ->
        let* m = mk anchor in
        let needs_anchor =
          match m with
          | Moveref.Reuse_dims _ | Moveref.Set_storage _
          | Moveref.Reorder_dims _ ->
              false
          | _ -> true
        in
        if needs_anchor && anchor = [] then Error (no_anchor_err tname)
        else
          let* inst = find_atomic caps prog m in
          Ok [ inst ]);
  }

let resolve name args : (Engine.transfo, string) result =
  let node mk = Ok (atomic name args (fun anchor -> mk anchor)) in
  match name with
  | "split" ->
      let* f = int_arg args "factor" in
      node (fun a -> Ok (Moveref.Split (a, f)))
  | "join" -> node (fun a -> Ok (Moveref.Join a))
  | "fission" ->
      let* k = int_arg args "at" in
      node (fun a -> Ok (Moveref.Fission (a, k)))
  | "interchange" -> node (fun a -> Ok (Moveref.Interchange a))
  | "reorder" -> node (fun a -> Ok (Moveref.Reorder a))
  | "unroll" -> node (fun a -> Ok (Moveref.Unroll a))
  | "vectorize" -> node (fun a -> Ok (Moveref.Vectorize a))
  | "parallelize" -> node (fun a -> Ok (Moveref.Parallelize a))
  | "gpu" ->
      let* dim = str_arg args "dim" in
      if dim = "grid" || dim = "block" || dim = "warp" then
        node (fun a -> Ok (Moveref.Gpu (a, dim)))
      else Error "gpu: dim must be grid, block or warp"
  | "pad" ->
      let* m = int_arg args "multiple" in
      node (fun a -> Ok (Moveref.Pad (a, m)))
  | "unannotate" -> node (fun a -> Ok (Moveref.Unannotate a))
  | "ssr" -> node (fun a -> Ok (Moveref.Ssr a))
  | "frep" -> node (fun a -> Ok (Moveref.Frep a))
  | "split_reduction" ->
      let* k = int_arg args "into" in
      node (fun a -> Ok (Moveref.Split_reduction (a, k)))
  | "reuse" ->
      let* b = str_arg args "buffer" in
      let* d = int_arg args "dim" in
      node (fun _ -> Ok (Moveref.Reuse_dims (b, d)))
  | "storage" ->
      let* b = str_arg args "buffer" in
      let* loc = str_arg args "loc" in
      node (fun _ -> Ok (Moveref.Set_storage (b, loc)))
  | "transpose" ->
      let* b = str_arg args "buffer" in
      let* i = int_arg args "swap" in
      node (fun _ -> Ok (Moveref.Reorder_dims (b, i)))
  | _ -> (
      match find name with
      | Some c -> c.make args
      | None ->
          Error
            (Printf.sprintf
               "unknown transformation %S (atomics: split, join, ...; \
                composites: %s)"
               name
               (String.concat ", " names)))

(* ------------------------------------------------------------------ *)
(* Macro-moves for search                                              *)
(* ------------------------------------------------------------------ *)

let scope_anchors prog =
  List.rev
    (Ir.Prog.fold_nodes
       (fun acc p node ->
         match node with Ir.Types.Scope _ -> p :: acc | _ -> acc)
       [] prog)

let macro_instances ~names:selected caps =
  (* close over caps with the hook cleared: expansion must only ever see
     atomic moves, or macros would nest *)
  let base = Xforms.with_extra (fun _ -> []) caps in
  let comps =
    if List.mem "all" selected then all
    else List.filter (fun c -> List.mem c.cname selected) all
  in
  fun prog ->
    let anchors = scope_anchors prog in
    List.concat_map
      (fun c ->
        List.concat_map
          (fun args ->
            match c.make args with
            | Error _ -> []
            | Ok t ->
                List.filter_map
                  (fun anchor ->
                    match t.Engine.expand base prog ~anchor with
                    | Ok (_ :: _ as _insts) ->
                        Some
                          {
                            Xforms.move =
                              Moveref.Composite
                                { cname = c.cname; args; anchor };
                            apply =
                              (fun p ->
                                match t.Engine.expand base p ~anchor with
                                | Error m -> raise (Xforms.Not_applicable m)
                                | Ok insts ->
                                    List.fold_left
                                      (fun acc (i : Xforms.instance) ->
                                        i.apply acc)
                                      p insts);
                          }
                    | Ok [] | Error _ -> None)
                  anchors)
          (c.variants base))
      comps

let enable ~names:selected caps =
  Xforms.with_extra (macro_instances ~names:selected caps) caps
