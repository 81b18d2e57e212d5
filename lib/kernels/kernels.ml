(* The ML operator set of the paper (Table 3) plus the §4.1 Snitch
   micro-kernels, expressed as *naive* IR programs: canonical textbook
   loop nests with no scheduling decisions applied.  Every optimization
   the system performs starts from these.

   Shapes are parameters so the same kernels serve the cost models at
   paper scale and the reference interpreter at test scale. *)

open Ir.Types

let ix = Ir.Index.iter
let cix ?(o = 0) terms : index = Ir.Index.normalize terms o
let r array idx : expr = Ref { array; idx }
let ( += ) dst e = Stmt { dst; rhs = Bin (Add, Ref dst, e) }
let ( <-- ) dst rhs = Stmt { dst; rhs }
let acc array idx : access = { array; idx }
let sq e = Bin (Mul, e, e)
let sc = Ir.Types.scope
let buf = Ir.Types.buffer

(* ------------------------------------------------------------------ *)
(* Elementwise kernels                                                 *)
(* ------------------------------------------------------------------ *)

let binary_elementwise ~name ~op ~n ~m : Ir.Prog.t =
  {
    buffers =
      [
        buf "x" F32 [ n; m ];
        buf "y" F32 [ n; m ];
        buf "z" F32 [ n; m ];
      ];
    inputs = [ "x"; "y" ];
    outputs = [ "z" ];
    body =
      [
        sc n
          [
            sc m
              [
                acc "z" [ ix 0; ix 1 ]
                <-- Bin (op, r "x" [ ix 0; ix 1 ], r "y" [ ix 0; ix 1 ]);
              ];
          ];
      ];
  }
  |> fun p -> ignore name; p

let add ~n ~m = binary_elementwise ~name:"add" ~op:Add ~n ~m
let mul ~n ~m = binary_elementwise ~name:"mul" ~op:Mul ~n ~m

let relu ~n ~m : Ir.Prog.t =
  {
    buffers = [ buf "x" F32 [ n; m ]; buf "z" F32 [ n; m ] ];
    inputs = [ "x" ];
    outputs = [ "z" ];
    body =
      [
        sc n
          [ sc m [ acc "z" [ ix 0; ix 1 ] <-- Un (Relu, r "x" [ ix 0; ix 1 ]) ] ];
      ];
  }

(* ------------------------------------------------------------------ *)
(* Reductions and normalizations                                       *)
(* ------------------------------------------------------------------ *)

let reducemean ~n ~m : Ir.Prog.t =
  {
    buffers = [ buf "x" F32 [ n; m ]; buf "z" F32 [ n ] ];
    inputs = [ "x" ];
    outputs = [ "z" ];
    body =
      [
        sc n
          [
            acc "z" [ ix 0 ] <-- Const 0.0;
            sc m [ acc "z" [ ix 0 ] += r "x" [ ix 0; ix 1 ] ];
            acc "z" [ ix 0 ]
            <-- Bin (Div, r "z" [ ix 0 ], Const (float_of_int m));
          ];
      ];
  }

(* Softmax over rows, the paper's running example (Figure 3).  The naive
   form keeps the four phases in separate inner loops; fusion and buffer
   reuse are discovered by transformations. *)
let softmax ~n ~m : Ir.Prog.t =
  {
    buffers =
      [
        buf "x" F32 [ n; m ];
        buf "mx" F32 [ n ] ~loc:Heap;
        buf "e" F32 [ n; m ];
        buf "s" F32 [ n ] ~loc:Heap;
        buf "z" F32 [ n; m ];
      ];
    inputs = [ "x" ];
    outputs = [ "z" ];
    body =
      [
        sc n
          [
            acc "mx" [ ix 0 ] <-- Const Float.neg_infinity;
            sc m
              [
                acc "mx" [ ix 0 ]
                <-- Bin (Max, r "mx" [ ix 0 ], r "x" [ ix 0; ix 1 ]);
              ];
            acc "s" [ ix 0 ] <-- Const 0.0;
            sc m
              [
                acc "e" [ ix 0; ix 1 ]
                <-- Un (Exp, Bin (Sub, r "x" [ ix 0; ix 1 ], r "mx" [ ix 0 ]));
              ];
            sc m [ acc "s" [ ix 0 ] += r "e" [ ix 0; ix 1 ] ];
            sc m
              [
                acc "z" [ ix 0; ix 1 ]
                <-- Bin (Div, r "e" [ ix 0; ix 1 ], r "s" [ ix 0 ]);
              ];
          ];
      ];
  }

let layernorm ~n ~m : Ir.Prog.t =
  let fm = float_of_int m in
  {
    buffers =
      [
        buf "x" F32 [ n; m ];
        buf "g" F32 [ m ];
        buf "b" F32 [ m ];
        buf "mu" F32 [ n ];
        buf "var" F32 [ n ];
        buf "rstd" F32 [ n ];
        buf "z" F32 [ n; m ];
      ];
    inputs = [ "x"; "g"; "b" ];
    outputs = [ "z" ];
    body =
      [
        sc n
          [
            acc "mu" [ ix 0 ] <-- Const 0.0;
            sc m [ acc "mu" [ ix 0 ] += r "x" [ ix 0; ix 1 ] ];
            acc "mu" [ ix 0 ] <-- Bin (Div, r "mu" [ ix 0 ], Const fm);
            acc "var" [ ix 0 ] <-- Const 0.0;
            sc m
              [
                acc "var" [ ix 0 ]
                += sq (Bin (Sub, r "x" [ ix 0; ix 1 ], r "mu" [ ix 0 ]));
              ];
            acc "var" [ ix 0 ] <-- Bin (Div, r "var" [ ix 0 ], Const fm);
            acc "rstd" [ ix 0 ]
            <-- Un (Recip, Un (Sqrt, Bin (Add, r "var" [ ix 0 ], Const 1e-5)));
            sc m
              [
                acc "z" [ ix 0; ix 1 ]
                <-- Bin
                      ( Add,
                        Bin
                          ( Mul,
                            Bin
                              ( Mul,
                                Bin (Sub, r "x" [ ix 0; ix 1 ], r "mu" [ ix 0 ]),
                                r "rstd" [ ix 0 ] ),
                            r "g" [ ix 1 ] ),
                        r "b" [ ix 1 ] );
              ];
          ];
      ];
  }

let rmsnorm ~n ~m : Ir.Prog.t =
  let fm = float_of_int m in
  {
    buffers =
      [
        buf "x" F32 [ n; m ];
        buf "g" F32 [ m ];
        buf "ss" F32 [ n ];
        buf "rr" F32 [ n ];
        buf "z" F32 [ n; m ];
      ];
    inputs = [ "x"; "g" ];
    outputs = [ "z" ];
    body =
      [
        sc n
          [
            acc "ss" [ ix 0 ] <-- Const 0.0;
            sc m [ acc "ss" [ ix 0 ] += sq (r "x" [ ix 0; ix 1 ]) ];
            acc "rr" [ ix 0 ]
            <-- Un
                  ( Recip,
                    Un
                      ( Sqrt,
                        Bin
                          ( Add,
                            Bin (Div, r "ss" [ ix 0 ], Const fm),
                            Const 1e-5 ) ) );
            sc m
              [
                acc "z" [ ix 0; ix 1 ]
                <-- Bin
                      ( Mul,
                        Bin (Mul, r "x" [ ix 0; ix 1 ], r "rr" [ ix 0 ]),
                        r "g" [ ix 1 ] );
              ];
          ];
      ];
  }

(* ------------------------------------------------------------------ *)
(* Contractions                                                        *)
(* ------------------------------------------------------------------ *)

let matmul ~m ~n ~k : Ir.Prog.t =
  {
    buffers =
      [ buf "a" F32 [ m; k ]; buf "b" F32 [ k; n ]; buf "c" F32 [ m; n ] ];
    inputs = [ "a"; "b" ];
    outputs = [ "c" ];
    body =
      [
        sc m
          [
            sc n
              [
                acc "c" [ ix 0; ix 1 ] <-- Const 0.0;
                sc k
                  [
                    acc "c" [ ix 0; ix 1 ]
                    += Bin (Mul, r "a" [ ix 0; ix 2 ], r "b" [ ix 2; ix 1 ]);
                  ];
              ];
          ];
      ];
  }

let bmm ~b ~m ~k ~n : Ir.Prog.t =
  {
    buffers =
      [
        buf "x" F32 [ b; m; k ];
        buf "y" F32 [ b; k; n ];
        buf "z" F32 [ b; m; n ];
      ];
    inputs = [ "x"; "y" ];
    outputs = [ "z" ];
    body =
      [
        sc b
          [
            sc m
              [
                sc n
                  [
                    acc "z" [ ix 0; ix 1; ix 2 ] <-- Const 0.0;
                    sc k
                      [
                        acc "z" [ ix 0; ix 1; ix 2 ]
                        += Bin
                             ( Mul,
                               r "x" [ ix 0; ix 1; ix 3 ],
                               r "y" [ ix 0; ix 3; ix 2 ] );
                      ];
                  ];
              ];
          ];
      ];
  }

(* 2D convolution, NCHW, square kernel of side [kside], no stride, valid
   padding: input H and W are enlarged by kside-1 as in the paper's shape
   listing (conv 1: 8×10×3×512×512×5). *)
let conv2d ~n ~f ~c ~h ~w ~kside : Ir.Prog.t =
  let hin = h + kside - 1 and win = w + kside - 1 in
  {
    buffers =
      [
        buf "x" F32 [ n; c; hin; win ];
        buf "k" F32 [ f; c; kside; kside ];
        buf "z" F32 [ n; f; h; w ];
      ];
    inputs = [ "x"; "k" ];
    outputs = [ "z" ];
    body =
      [
        sc n
          [
            sc f
              [
                sc h
                  [
                    sc w
                      [
                        acc "z" [ ix 0; ix 1; ix 2; ix 3 ] <-- Const 0.0;
                        sc c
                          [
                            sc kside
                              [
                                sc kside
                                  [
                                    acc "z" [ ix 0; ix 1; ix 2; ix 3 ]
                                    += Bin
                                         ( Mul,
                                           r "x"
                                             [
                                               ix 0;
                                               ix 4;
                                               cix [ (1, 2); (1, 5) ];
                                               cix [ (1, 3); (1, 6) ];
                                             ],
                                           r "k" [ ix 1; ix 4; ix 5; ix 6 ] );
                                  ];
                              ];
                          ];
                      ];
                  ];
              ];
          ];
      ];
  }

(* Batch normalization (training-statistics form): per-channel mean and
   variance over N×H×W, then the affine normalization.  The temporaries
   e, v, a, b match the paper's §4.3 discussion. *)
let batchnorm ~n ~c ~h ~w : Ir.Prog.t =
  let count = float_of_int (n * h * w) in
  {
    buffers =
      [
        buf "x" F32 [ n; c; h; w ];
        buf "gamma" F32 [ c ];
        buf "beta" F32 [ c ];
        buf "e" F32 [ c ];
        buf "v" F32 [ c ];
        buf "a" F32 [ c ];
        buf "b" F32 [ c ];
        buf "z" F32 [ n; c; h; w ];
      ];
    inputs = [ "x"; "gamma"; "beta" ];
    outputs = [ "z" ];
    body =
      [
        sc c
          [
            acc "e" [ ix 0 ] <-- Const 0.0;
            sc n
              [
                sc h
                  [ sc w [ acc "e" [ ix 0 ] += r "x" [ ix 1; ix 0; ix 2; ix 3 ] ] ];
              ];
            acc "e" [ ix 0 ] <-- Bin (Div, r "e" [ ix 0 ], Const count);
            acc "v" [ ix 0 ] <-- Const 0.0;
            sc n
              [
                sc h
                  [
                    sc w
                      [
                        acc "v" [ ix 0 ]
                        += sq
                             (Bin
                                ( Sub,
                                  r "x" [ ix 1; ix 0; ix 2; ix 3 ],
                                  r "e" [ ix 0 ] ));
                      ];
                  ];
              ];
            acc "v" [ ix 0 ] <-- Bin (Div, r "v" [ ix 0 ], Const count);
            acc "a" [ ix 0 ]
            <-- Bin
                  ( Mul,
                    r "gamma" [ ix 0 ],
                    Un (Recip, Un (Sqrt, Bin (Add, r "v" [ ix 0 ], Const 1e-5)))
                  );
            acc "b" [ ix 0 ]
            <-- Bin (Sub, r "beta" [ ix 0 ], Bin (Mul, r "a" [ ix 0 ], r "e" [ ix 0 ]));
          ];
        sc n
          [
            sc c
              [
                sc h
                  [
                    sc w
                      [
                        acc "z" [ ix 0; ix 1; ix 2; ix 3 ]
                        <-- Bin
                              ( Add,
                                Bin
                                  ( Mul,
                                    r "a" [ ix 1 ],
                                    r "x" [ ix 0; ix 1; ix 2; ix 3 ] ),
                                r "b" [ ix 1 ] );
                      ];
                  ];
              ];
          ];
      ];
  }

(* SwiGLU: z = silu(x·w1) ⊙ (x·w2), with silu(g) = g / (1 + exp(-g)). *)
let swiglu ~m ~k ~n : Ir.Prog.t =
  {
    buffers =
      [
        buf "x" F32 [ m; k ];
        buf "w1" F32 [ k; n ];
        buf "w2" F32 [ k; n ];
        buf "gg" F32 [ m; n ];
        buf "u" F32 [ m; n ];
        buf "z" F32 [ m; n ];
      ];
    inputs = [ "x"; "w1"; "w2" ];
    outputs = [ "z" ];
    body =
      [
        sc m
          [
            sc n
              [
                acc "gg" [ ix 0; ix 1 ] <-- Const 0.0;
                sc k
                  [
                    acc "gg" [ ix 0; ix 1 ]
                    += Bin (Mul, r "x" [ ix 0; ix 2 ], r "w1" [ ix 2; ix 1 ]);
                  ];
              ];
          ];
        sc m
          [
            sc n
              [
                acc "u" [ ix 0; ix 1 ] <-- Const 0.0;
                sc k
                  [
                    acc "u" [ ix 0; ix 1 ]
                    += Bin (Mul, r "x" [ ix 0; ix 2 ], r "w2" [ ix 2; ix 1 ]);
                  ];
              ];
          ];
        sc m
          [
            sc n
              [
                acc "z" [ ix 0; ix 1 ]
                <-- Bin
                      ( Mul,
                        Bin
                          ( Div,
                            r "gg" [ ix 0; ix 1 ],
                            Bin
                              ( Add,
                                Const 1.0,
                                Un (Exp, Un (Neg, r "gg" [ ix 0; ix 1 ])) ) ),
                        r "u" [ ix 0; ix 1 ] );
              ];
          ];
      ];
  }

(* ReLU + pointwise feed-forward: z[n,f,h,w] = relu(Σc x[n,c,h,w]·wt[f,c] + bias[f]) *)
let relu_ffn ~n ~c ~h ~w : Ir.Prog.t =
  {
    buffers =
      [
        buf "x" F32 [ n; c; h; w ];
        buf "wt" F32 [ c; c ];
        buf "bias" F32 [ c ];
        buf "t" F32 [ n; c; h; w ];
        buf "z" F32 [ n; c; h; w ];
      ];
    inputs = [ "x"; "wt"; "bias" ];
    outputs = [ "z" ];
    body =
      [
        sc n
          [
            sc c
              [
                sc h
                  [
                    sc w
                      [
                        acc "t" [ ix 0; ix 1; ix 2; ix 3 ] <-- r "bias" [ ix 1 ];
                        sc c
                          [
                            acc "t" [ ix 0; ix 1; ix 2; ix 3 ]
                            += Bin
                                 ( Mul,
                                   r "x" [ ix 0; ix 4; ix 2; ix 3 ],
                                   r "wt" [ ix 1; ix 4 ] );
                          ];
                        acc "z" [ ix 0; ix 1; ix 2; ix 3 ]
                        <-- Un (Relu, r "t" [ ix 0; ix 1; ix 2; ix 3 ]);
                      ];
                  ];
              ];
          ];
      ];
  }

(* ------------------------------------------------------------------ *)
(* Snitch micro-kernels (§4.1)                                         *)
(* ------------------------------------------------------------------ *)

let axpy ~n : Ir.Prog.t =
  {
    buffers =
      [ buf "x" F32 [ n ]; buf "y" F32 [ n ]; buf "alpha" F32 [ 1 ];
        buf "z" F32 [ n ] ];
    inputs = [ "x"; "y"; "alpha" ];
    outputs = [ "z" ];
    body =
      [
        sc n
          [
            acc "z" [ ix 0 ]
            <-- Bin
                  ( Add,
                    Bin (Mul, r "alpha" [ Ir.Index.const 0 ], r "x" [ ix 0 ]),
                    r "y" [ ix 0 ] );
          ];
      ];
  }

let dot ~n : Ir.Prog.t =
  {
    buffers =
      [ buf "x" F32 [ n ]; buf "y" F32 [ n ]; buf "z" F32 [ 1 ] ];
    inputs = [ "x"; "y" ];
    outputs = [ "z" ];
    body =
      [
        (acc "z" [ Ir.Index.const 0 ] <-- Const 0.0);
        sc n
          [
            acc "z" [ Ir.Index.const 0 ]
            += Bin (Mul, r "x" [ ix 0 ], r "y" [ ix 0 ]);
          ];
      ];
  }

let vecsum ~n : Ir.Prog.t =
  {
    buffers = [ buf "x" F32 [ n ]; buf "z" F32 [ 1 ] ];
    inputs = [ "x" ];
    outputs = [ "z" ];
    body =
      [
        (acc "z" [ Ir.Index.const 0 ] <-- Const 0.0);
        sc n [ acc "z" [ Ir.Index.const 0 ] += r "x" [ ix 0 ] ];
      ];
  }

let gemv ~m ~n : Ir.Prog.t =
  {
    buffers =
      [ buf "a" F32 [ m; n ]; buf "x" F32 [ n ]; buf "z" F32 [ m ] ];
    inputs = [ "a"; "x" ];
    outputs = [ "z" ];
    body =
      [
        sc m
          [
            acc "z" [ ix 0 ] <-- Const 0.0;
            sc n
              [ acc "z" [ ix 0 ] += Bin (Mul, r "a" [ ix 0; ix 1 ], r "x" [ ix 1 ]) ];
          ];
      ];
  }

let scale ~n : Ir.Prog.t =
  {
    buffers = [ buf "x" F32 [ n ]; buf "z" F32 [ n ] ];
    inputs = [ "x" ];
    outputs = [ "z" ];
    body = [ sc n [ acc "z" [ ix 0 ] <-- Bin (Mul, r "x" [ ix 0 ], Const 2.5) ] ];
  }

(* ------------------------------------------------------------------ *)
(* Registries                                                          *)
(* ------------------------------------------------------------------ *)

type entry = {
  label : string;
  shape_desc : string;
  description : string;
  build : unit -> Ir.Prog.t; (* paper-scale shapes *)
  build_small : unit -> Ir.Prog.t; (* interpreter-friendly shapes *)
}

(* Table 3 of the paper, with the exact shapes listed there. *)
let table3 : entry list =
  [
    {
      label = "add";
      shape_desc = "3072x4096";
      description = "Elementwise addition";
      build = (fun () -> add ~n:3072 ~m:4096);
      build_small = (fun () -> add ~n:6 ~m:8);
    };
    {
      label = "batchnorm 1";
      shape_desc = "8x3x2048x2048";
      description = "Batch Normalization";
      build = (fun () -> batchnorm ~n:8 ~c:3 ~h:2048 ~w:2048);
      build_small = (fun () -> batchnorm ~n:2 ~c:3 ~h:4 ~w:4);
    };
    {
      label = "batchnorm 2";
      shape_desc = "8x64x300x300";
      description = "Batch Normalization";
      build = (fun () -> batchnorm ~n:8 ~c:64 ~h:300 ~w:300);
      build_small = (fun () -> batchnorm ~n:2 ~c:4 ~h:3 ~w:3);
    };
    {
      label = "bmm";
      shape_desc = "192x256x128x256";
      description = "Batched Matrix Multiplication";
      build = (fun () -> bmm ~b:192 ~m:256 ~k:128 ~n:256);
      build_small = (fun () -> bmm ~b:2 ~m:4 ~k:3 ~n:4);
    };
    {
      label = "conv 1";
      shape_desc = "8x10x3x512x512x5";
      description = "2D Convolution";
      build = (fun () -> conv2d ~n:8 ~f:10 ~c:3 ~h:512 ~w:512 ~kside:5);
      build_small = (fun () -> conv2d ~n:1 ~f:2 ~c:2 ~h:4 ~w:4 ~kside:3);
    };
    {
      label = "conv 2";
      shape_desc = "8x64x64x56x56x3";
      description = "2D convolution";
      build = (fun () -> conv2d ~n:8 ~f:64 ~c:64 ~h:56 ~w:56 ~kside:3);
      build_small = (fun () -> conv2d ~n:1 ~f:3 ~c:3 ~h:4 ~w:4 ~kside:3);
    };
    {
      label = "layernorm 1";
      shape_desc = "16384x1024";
      description = "Layer Normalization";
      build = (fun () -> layernorm ~n:16384 ~m:1024);
      build_small = (fun () -> layernorm ~n:4 ~m:8);
    };
    {
      label = "layernorm 2";
      shape_desc = "4096x4096";
      description = "Layer Normalization";
      build = (fun () -> layernorm ~n:4096 ~m:4096);
      build_small = (fun () -> layernorm ~n:3 ~m:6);
    };
    {
      label = "matmul";
      shape_desc = "768x1024x1024";
      description = "Matrix Multiplication";
      build = (fun () -> matmul ~m:768 ~k:1024 ~n:1024);
      build_small = (fun () -> matmul ~m:4 ~k:5 ~n:6);
    };
    {
      label = "mul";
      shape_desc = "6x14336";
      description = "Elementwise multiplication";
      build = (fun () -> mul ~n:6 ~m:14336);
      build_small = (fun () -> mul ~n:3 ~m:8);
    };
    {
      label = "reducemean";
      shape_desc = "4096x4096";
      description = "Average along axis";
      build = (fun () -> reducemean ~n:4096 ~m:4096);
      build_small = (fun () -> reducemean ~n:4 ~m:8);
    };
    {
      label = "relu";
      shape_desc = "4096x4096";
      description = "Rectified Linear Unit (ReLU)";
      build = (fun () -> relu ~n:4096 ~m:4096);
      build_small = (fun () -> relu ~n:4 ~m:8);
    };
    {
      label = "relu_ffn";
      shape_desc = "8x64x112x112";
      description = "ReLU+FeedForward Network";
      build = (fun () -> relu_ffn ~n:8 ~c:64 ~h:112 ~w:112);
      build_small = (fun () -> relu_ffn ~n:1 ~c:3 ~h:2 ~w:2);
    };
    {
      label = "rmsnorm";
      shape_desc = "3072x4096";
      description = "Root Mean Square Normalization";
      build = (fun () -> rmsnorm ~n:3072 ~m:4096);
      build_small = (fun () -> rmsnorm ~n:3 ~m:8);
    };
    {
      label = "softmax";
      shape_desc = "24576x512";
      description = "Softmax";
      build = (fun () -> softmax ~n:24576 ~m:512);
      build_small = (fun () -> softmax ~n:4 ~m:8);
    };
    {
      label = "swiglu";
      shape_desc = "1x256x4096x448";
      description = "SwiGLU activation function";
      build = (fun () -> swiglu ~m:256 ~k:4096 ~n:448);
      build_small = (fun () -> swiglu ~m:3 ~k:4 ~n:5);
    };
  ]

(* Micro-kernels used for the Snitch RISC-V evaluation (§4.1).  Sizes are
   small enough for the cycle-approximate simulator to stay deterministic
   and fast, matching the single-cluster micro-benchmark setting. *)
let snitch_micro : entry list =
  [
    {
      label = "axpy";
      shape_desc = "1024";
      description = "z = alpha*x + y";
      build = (fun () -> axpy ~n:1024);
      build_small = (fun () -> axpy ~n:16);
    };
    {
      label = "dot";
      shape_desc = "1024";
      description = "dot product";
      build = (fun () -> dot ~n:1024);
      build_small = (fun () -> dot ~n:16);
    };
    {
      label = "vecsum";
      shape_desc = "1024";
      description = "vector sum reduction";
      build = (fun () -> vecsum ~n:1024);
      build_small = (fun () -> vecsum ~n:16);
    };
    {
      label = "gemv";
      shape_desc = "64x64";
      description = "matrix-vector product";
      build = (fun () -> gemv ~m:64 ~n:64);
      build_small = (fun () -> gemv ~m:4 ~n:6);
    };
    {
      label = "scale";
      shape_desc = "1024";
      description = "scalar scaling";
      build = (fun () -> scale ~n:1024);
      build_small = (fun () -> scale ~n:16);
    };
    {
      label = "sum2d";
      shape_desc = "32x32";
      description = "2D mean reduction";
      build = (fun () -> reducemean ~n:32 ~m:32);
      build_small = (fun () -> reducemean ~n:4 ~m:4);
    };
    {
      label = "softmax_micro";
      shape_desc = "16x64";
      description = "small softmax";
      build = (fun () -> softmax ~n:16 ~m:64);
      build_small = (fun () -> softmax ~n:4 ~m:8);
    };
    {
      label = "relu_micro";
      shape_desc = "32x32";
      description = "small ReLU";
      build = (fun () -> relu ~n:32 ~m:32);
      build_small = (fun () -> relu ~n:4 ~m:8);
    };
  ]

let find_entry (entries : entry list) label =
  match List.find_opt (fun e -> e.label = label) entries with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown kernel %S (available: %s)" label
           (String.concat ", " (List.map (fun e -> e.label) entries)))
