(* A small fully-connected neural network with manual backpropagation and
   the Adam optimizer — the function approximator behind the deep
   Q-network (§3.2).  Pure OCaml, deterministic given the RNG seed. *)

type layer = {
  w : float array array; (* out x in *)
  b : float array;
  (* gradient accumulators *)
  gw : float array array;
  gb : float array;
  (* Adam moments *)
  mw : float array array;
  vw : float array array;
  mb : float array;
  vb : float array;
}

type t = {
  layers : layer array; (* ReLU between layers, linear output *)
  mutable adam_t : int;
}

let make_layer rng n_in n_out =
  let scale = sqrt (2.0 /. float_of_int n_in) in
  {
    w =
      Array.init n_out (fun _ ->
          Array.init n_in (fun _ -> Util.Rng.normal rng *. scale));
    b = Array.make n_out 0.0;
    gw = Array.init n_out (fun _ -> Array.make n_in 0.0);
    gb = Array.make n_out 0.0;
    mw = Array.init n_out (fun _ -> Array.make n_in 0.0);
    vw = Array.init n_out (fun _ -> Array.make n_in 0.0);
    mb = Array.make n_out 0.0;
    vb = Array.make n_out 0.0;
  }

(* [create rng [n0; n1; ...; nk]] builds a network with input size n0 and
   output size nk. *)
let create rng sizes =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  {
    layers =
      Array.of_list (List.map (fun (i, o) -> make_layer rng i o) (pairs sizes));
    adam_t = 0;
  }

let layer_forward (l : layer) (x : float array) =
  Array.mapi
    (fun o _ ->
      let row = l.w.(o) in
      let acc = ref l.b.(o) in
      Array.iteri (fun i xi -> acc := !acc +. (row.(i) *. xi)) x;
      !acc)
    l.b

let relu v = Array.map (fun x -> if x > 0.0 then x else 0.0) v

(* Forward pass keeping intermediate activations for backprop:
   activations.(0) = input, activations.(i+1) = post-nonlinearity output
   of layer i (linear for the last layer). *)
type tape = { acts : float array array }

let forward_tape (net : t) (x : float array) : tape * float array =
  let n = Array.length net.layers in
  let acts = Array.make (n + 1) [||] in
  acts.(0) <- x;
  for i = 0 to n - 1 do
    let z = layer_forward net.layers.(i) acts.(i) in
    acts.(i + 1) <- (if i = n - 1 then z else relu z)
  done;
  ({ acts }, acts.(n))

let forward net x = snd (forward_tape net x)

(* Accumulate gradients for a single sample given dLoss/dOutput. *)
let backward (net : t) (tape : tape) (dout : float array) : unit =
  let n = Array.length net.layers in
  let delta = ref dout in
  for i = n - 1 downto 0 do
    let l = net.layers.(i) in
    let x = tape.acts.(i) in
    let y = tape.acts.(i + 1) in
    (* through the nonlinearity (ReLU) for non-last layers *)
    let d =
      if i = n - 1 then !delta
      else Array.mapi (fun o dv -> if y.(o) > 0.0 then dv else 0.0) !delta
    in
    (* parameter gradients *)
    Array.iteri
      (fun o dv ->
        l.gb.(o) <- l.gb.(o) +. dv;
        let row = l.gw.(o) in
        Array.iteri (fun j xj -> row.(j) <- row.(j) +. (dv *. xj)) x)
      d;
    (* input gradient *)
    let din = Array.make (Array.length x) 0.0 in
    Array.iteri
      (fun o dv ->
        let row = l.w.(o) in
        Array.iteri (fun j wj -> din.(j) <- din.(j) +. (dv *. wj)) row)
      d;
    delta := din
  done

let zero_grad (net : t) =
  Array.iter
    (fun l ->
      Array.iter (fun row -> Array.fill row 0 (Array.length row) 0.0) l.gw;
      Array.fill l.gb 0 (Array.length l.gb) 0.0)
    net.layers

let adam_step ~lr (net : t) =
  let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
  net.adam_t <- net.adam_t + 1;
  let t = float_of_int net.adam_t in
  let corr1 = 1.0 -. (beta1 ** t) and corr2 = 1.0 -. (beta2 ** t) in
  Array.iter
    (fun l ->
      let upd m v g w =
        let m' = (beta1 *. m) +. ((1.0 -. beta1) *. g) in
        let v' = (beta2 *. v) +. ((1.0 -. beta2) *. g *. g) in
        let mh = m' /. corr1 and vh = v' /. corr2 in
        (m', v', w -. (lr *. mh /. (sqrt vh +. eps)))
      in
      Array.iteri
        (fun o row ->
          Array.iteri
            (fun j wj ->
              let m', v', w' = upd l.mw.(o).(j) l.vw.(o).(j) l.gw.(o).(j) wj in
              l.mw.(o).(j) <- m';
              l.vw.(o).(j) <- v';
              row.(j) <- w')
            row;
          let m', v', b' = upd l.mb.(o) l.vb.(o) l.gb.(o) l.b.(o) in
          l.mb.(o) <- m';
          l.vb.(o) <- v';
          l.b.(o) <- b')
        l.w)
    net.layers

(* Copy weights (not optimizer state): used to refresh the target
   network. *)
let copy_weights ~(src : t) ~(dst : t) =
  Array.iteri
    (fun i ls ->
      let ld = dst.layers.(i) in
      Array.iteri (fun o row -> Array.blit row 0 ld.w.(o) 0 (Array.length row))
        ls.w;
      Array.blit ls.b 0 ld.b 0 (Array.length ls.b))
    src.layers
