(* Layers cache forward-pass intermediates in mutable fields; [backward]
   consumes the cache of the preceding [forward ~train:true].  The cache is
   [option]-typed so a backward without a prior training forward fails
   loudly instead of silently using stale data. *)

type conv = {
  stride : int;
  pad : int;
  cw : Param.t;
  cb : Param.t;
  mutable conv_x : Tensor.t option;
}

type dense_rec = {
  dw : Param.t;
  db : Param.t;
  mutable dense_x : Tensor.t option;
}

type norm = {
  gamma : Param.t;
  beta : Param.t;
  mutable norm_x : Tensor.t option;
}

type t =
  | Conv of conv
  | Dense of dense_rec
  | Relu of { mutable relu_x : Tensor.t option }
  | Max_pool of {
      msize : int;
      mstride : int;
      mutable mcache : (int array * int array) option; (* x shape, switches *)
    }
  | Flatten of { mutable fcache : int array option }
  | Norm of norm
  | Residual of { body : t; projection : t option }
  | Inception of {
      branches : t list;
      mutable icache : int list option; (* per-branch output channels *)
    }
  | Seq of t list
  | Dense_block of { block_in_c : int; growth : int; convs : t list }

let norm_eps = 1e-5

(* Constructors *)

let conv2d g ?(stride = 1) ?(pad = 0) ~in_c ~out_c ~k () =
  let sigma = sqrt (2. /. float_of_int (in_c * k * k)) in
  let w = Tensor.randn g ~sigma [| out_c; in_c; k; k |] in
  let name = Printf.sprintf "conv%dx%d_%d_%d" k k in_c out_c in
  Conv
    {
      stride;
      pad;
      cw = Param.create (name ^ ".w") w;
      cb = Param.create (name ^ ".b") (Tensor.zeros [| out_c |]);
      conv_x = None;
    }

let dense g ~in_dim ~out_dim () =
  let sigma = sqrt (2. /. float_of_int in_dim) in
  let w = Tensor.randn g ~sigma [| out_dim; in_dim |] in
  let name = Printf.sprintf "dense_%d_%d" in_dim out_dim in
  Dense
    {
      dw = Param.create (name ^ ".w") w;
      db = Param.create (name ^ ".b") (Tensor.zeros [| out_dim |]);
      dense_x = None;
    }

let relu () = Relu { relu_x = None }

let max_pool ?stride ~size () =
  let stride = match stride with None -> size | Some s -> s in
  Max_pool { msize = size; mstride = stride; mcache = None }

let flatten () = Flatten { fcache = None }

let channel_norm ~channels =
  Norm
    {
      gamma = Param.create "norm.gamma" (Tensor.ones [| channels |]);
      beta = Param.create "norm.beta" (Tensor.zeros [| channels |]);
      norm_x = None;
    }

let sequential layers = Seq layers
let residual ?projection body = Residual { body = Seq body; projection }
let inception branches = Inception { branches = List.map (fun b -> Seq b) branches; icache = None }

let dense_block g ~in_c ~growth ~layers () =
  let convs =
    List.init layers (fun i ->
        let c = in_c + (i * growth) in
        Seq [ conv2d g ~pad:1 ~in_c:c ~out_c:growth ~k:3 (); relu () ])
  in
  Dense_block { block_in_c = in_c; growth; convs }

(* Cache helpers *)

let need name = function
  | Some v -> v
  | None -> failwith ("Layer.backward(" ^ name ^ "): no cached forward pass")

(* Forward: each parametric op runs the float64 batch kernel the boxed
   plan runs, on a one-image view ([Tensor.reshape] shares storage). *)

let batch1 x = Tensor.reshape x (Array.append [| 1 |] (Tensor.shape x))

let unbatch1 y =
  let s = Tensor.shape y in
  Tensor.reshape y (Array.sub s 1 (Array.length s - 1))

let rec forward ?(train = false) layer x =
  match layer with
  | Conv c ->
      if train then c.conv_x <- Some x;
      unbatch1
        (Tensor.conv2d_gemm_batch ~stride:c.stride ~pad:c.pad (batch1 x)
           ~weight:c.cw.value ~bias:(Some c.cb.value))
  | Dense d ->
      if train then d.dense_x <- Some x;
      unbatch1
        (Tensor.dense_batch (batch1 x) ~weight:d.dw.value ~bias:d.db.value)
  | Relu r ->
      if train then r.relu_x <- Some x;
      Tensor.relu x
  | Max_pool p ->
      let y, switches = Tensor.max_pool2d ~stride:p.mstride ~size:p.msize x in
      if train then p.mcache <- Some (Tensor.shape x, switches);
      y
  | Flatten f ->
      if train then f.fcache <- Some (Tensor.shape x);
      Tensor.flatten x
  | Norm n ->
      if train then n.norm_x <- Some x;
      unbatch1
        (Tensor.channel_norm_batch ~gamma:n.gamma.value ~beta:n.beta.value
           ~eps:norm_eps (batch1 x))
  | Residual { body; projection } ->
      let skip =
        match projection with None -> x | Some p -> forward ~train p x
      in
      Tensor.add (forward ~train body x) skip
  | Inception i ->
      let outs = List.map (fun b -> forward ~train b x) i.branches in
      if train then i.icache <- Some (List.map (fun o -> Tensor.dim o 0) outs);
      unbatch1 (Tensor.concat_channels_batch (List.map batch1 outs))
  | Seq layers -> List.fold_left (fun acc l -> forward ~train l acc) x layers
  | Dense_block b ->
      List.fold_left
        (fun feat conv ->
          let y = forward ~train conv feat in
          unbatch1 (Tensor.concat_channels_batch [ batch1 feat; batch1 y ]))
        x b.convs

(* Cache management *)

let rec clear_caches = function
  | Conv c -> c.conv_x <- None
  | Dense d -> d.dense_x <- None
  | Relu r -> r.relu_x <- None
  | Max_pool p -> p.mcache <- None
  | Flatten f -> f.fcache <- None
  | Norm n -> n.norm_x <- None
  | Residual { body; projection } ->
      clear_caches body;
      Option.iter clear_caches projection
  | Inception i ->
      i.icache <- None;
      List.iter clear_caches i.branches
  | Seq layers -> List.iter clear_caches layers
  | Dense_block b -> List.iter clear_caches b.convs

(* Structural view for plan compilers (see {!Backend}): exposes each
   layer's kind and current parameter tensors without the training
   caches or the representation itself. *)

type view =
  | V_conv of { stride : int; pad : int; weight : Tensor.t; bias : Tensor.t }
  | V_dense of { weight : Tensor.t; bias : Tensor.t }
  | V_relu
  | V_max_pool of { size : int; stride : int }
  | V_flatten
  | V_norm of { gamma : Tensor.t; beta : Tensor.t }
  | V_residual of { body : t; projection : t option }
  | V_inception of t list
  | V_seq of t list
  | V_dense_block of t list

let view = function
  | Conv c ->
      V_conv
        { stride = c.stride; pad = c.pad; weight = c.cw.value; bias = c.cb.value }
  | Dense d -> V_dense { weight = d.dw.value; bias = d.db.value }
  | Relu _ -> V_relu
  | Max_pool p -> V_max_pool { size = p.msize; stride = p.mstride }
  | Flatten _ -> V_flatten
  | Norm n -> V_norm { gamma = n.gamma.value; beta = n.beta.value }
  | Residual { body; projection } -> V_residual { body; projection }
  | Inception i -> V_inception i.branches
  | Seq layers -> V_seq layers
  | Dense_block b -> V_dense_block b.convs

(* Backward *)

let rec backward layer dout =
  match layer with
  | Conv c ->
      let x = need "conv2d" c.conv_x in
      let dx, dw, db =
        Tensor.conv2d_backward ~stride:c.stride ~pad:c.pad ~x
          ~weight:c.cw.value dout
      in
      Param.accumulate c.cw dw;
      Param.accumulate c.cb db;
      dx
  | Dense d ->
      let x = need "dense" d.dense_x in
      Param.accumulate d.dw (Tensor.outer dout x);
      Param.accumulate d.db dout;
      Tensor.matvec_t d.dw.value dout
  | Relu r ->
      let x = need "relu" r.relu_x in
      Tensor.map2 (fun xv g -> if xv > 0. then g else 0.) x dout
  | Max_pool p ->
      let x_shape, switches = need "max_pool" p.mcache in
      Tensor.max_pool2d_backward ~x_shape ~switches dout
  | Flatten f ->
      let x_shape = need "flatten" f.fcache in
      Tensor.reshape dout x_shape
  | Norm n -> backward_norm n dout
  | Residual { body; projection } ->
      let dbody = backward body dout in
      let dskip =
        match projection with None -> dout | Some p -> backward p dout
      in
      Tensor.add dbody dskip
  | Inception i ->
      let channels = need "inception" i.icache in
      let pieces = Tensor.split_channels dout channels in
      let dxs = List.map2 backward i.branches pieces in
      List.fold_left Tensor.add (List.hd dxs) (List.tl dxs)
  | Seq layers ->
      List.fold_left (fun d l -> backward l d) dout (List.rev layers)
  | Dense_block b ->
      (* feat_{i+1} = concat (feat_i, conv_i feat_i); peel in reverse. *)
      let n = List.length b.convs in
      let dfeat = ref dout in
      let convs_rev = List.rev b.convs in
      List.iteri
        (fun j conv ->
          let i = n - 1 - j in
          let c_in = b.block_in_c + (i * b.growth) in
          match Tensor.split_channels !dfeat [ c_in; b.growth ] with
          | [ d_direct; d_y ] ->
              let d_through = backward conv d_y in
              dfeat := Tensor.add d_direct d_through
          | _ -> assert false)
        convs_rev;
      !dfeat

and backward_norm n dout =
  let x = need "channel_norm" n.norm_x in
  let mu, inv_std = Tensor.channel_stats ~eps:norm_eps (batch1 x) in
  let c = Tensor.dim x 0 and h = Tensor.dim x 1 and w = Tensor.dim x 2 in
  let m = float_of_int (h * w) in
  let dx = Tensor.zeros [| c; h; w |] in
  let dgamma = Tensor.zeros [| c |] and dbeta = Tensor.zeros [| c |] in
  for ch = 0 to c - 1 do
    let off = ch * h * w in
    let mean = mu.(ch) and istd = inv_std.(ch) in
    let gam = Tensor.get_flat n.gamma.value ch in
    (* Accumulate sum(dxhat) and sum(dxhat * xhat) for the channel. *)
    let s1 = ref 0. and s2 = ref 0. and dg = ref 0. and db = ref 0. in
    for i = 0 to (h * w) - 1 do
      let g = Tensor.get_flat dout (off + i) in
      let xhat = (Tensor.get_flat x (off + i) -. mean) *. istd in
      let dxhat = g *. gam in
      s1 := !s1 +. dxhat;
      s2 := !s2 +. (dxhat *. xhat);
      dg := !dg +. (g *. xhat);
      db := !db +. g
    done;
    Tensor.set_flat dgamma ch !dg;
    Tensor.set_flat dbeta ch !db;
    for i = 0 to (h * w) - 1 do
      let g = Tensor.get_flat dout (off + i) in
      let xhat = (Tensor.get_flat x (off + i) -. mean) *. istd in
      let dxhat = g *. gam in
      let v = istd *. (dxhat -. (!s1 /. m) -. (xhat *. !s2 /. m)) in
      Tensor.set_flat dx (off + i) v
    done
  done;
  Param.accumulate n.gamma dgamma;
  Param.accumulate n.beta dbeta;
  dx

(* Parameters *)

let rec params = function
  | Conv c -> [ c.cw; c.cb ]
  | Dense d -> [ d.dw; d.db ]
  | Norm n -> [ n.gamma; n.beta ]
  | Relu _ | Max_pool _ | Flatten _ -> []
  | Residual { body; projection } ->
      params body
      @ (match projection with None -> [] | Some p -> params p)
  | Inception i -> List.concat_map params i.branches
  | Seq layers -> List.concat_map params layers
  | Dense_block b -> List.concat_map params b.convs

(* Description *)

let rec describe = function
  | Conv c ->
      let s = Tensor.shape c.cw.value in
      Printf.sprintf "conv2d(%d->%d,k%d,s%d,p%d)" s.(1) s.(0) s.(2) c.stride
        c.pad
  | Dense d ->
      let s = Tensor.shape d.dw.value in
      Printf.sprintf "dense(%d->%d)" s.(1) s.(0)
  | Relu _ -> "relu"
  | Max_pool p -> Printf.sprintf "max_pool(%d,s%d)" p.msize p.mstride
  | Flatten _ -> "flatten"
  | Norm n -> Printf.sprintf "channel_norm(%d)" (Tensor.numel n.gamma.value)
  | Residual { body; projection } ->
      let proj =
        match projection with
        | None -> ""
        | Some p -> ", proj=" ^ describe p
      in
      Printf.sprintf "residual(%s%s)" (describe body) proj
  | Inception i ->
      let bs = List.map describe i.branches in
      Printf.sprintf "inception(%s)" (String.concat " | " bs)
  | Seq layers -> "[" ^ String.concat "; " (List.map describe layers) ^ "]"
  | Dense_block b ->
      Printf.sprintf "dense_block(in=%d,growth=%d,layers=%d)" b.block_in_c
        b.growth (List.length b.convs)

(* Static shape inference *)

let conv_out_dim size k stride pad = ((size + (2 * pad) - k) / stride) + 1

let rec output_shape layer in_shape =
  match layer with
  | Conv c ->
      if Array.length in_shape <> 3 then
        invalid_arg "Layer.output_shape: conv2d expects CHW input";
      let s = Tensor.shape c.cw.value in
      if in_shape.(0) <> s.(1) then
        invalid_arg
          (Printf.sprintf "Layer.output_shape: conv2d expects %d channels, got %d"
             s.(1) in_shape.(0));
      let oh = conv_out_dim in_shape.(1) s.(2) c.stride c.pad
      and ow = conv_out_dim in_shape.(2) s.(3) c.stride c.pad in
      if oh <= 0 || ow <= 0 then
        invalid_arg "Layer.output_shape: conv2d output would be empty";
      [| s.(0); oh; ow |]
  | Dense d ->
      let s = Tensor.shape d.dw.value in
      if Array.length in_shape <> 1 || in_shape.(0) <> s.(1) then
        invalid_arg "Layer.output_shape: dense input mismatch";
      [| s.(0) |]
  | Relu _ -> Array.copy in_shape
  | Max_pool p ->
      [|
        in_shape.(0);
        conv_out_dim in_shape.(1) p.msize p.mstride 0;
        conv_out_dim in_shape.(2) p.msize p.mstride 0;
      |]
  | Flatten _ -> [| Array.fold_left ( * ) 1 in_shape |]
  | Norm _ -> Array.copy in_shape
  | Residual { body; projection } ->
      let out = output_shape body in_shape in
      let skip =
        match projection with
        | None -> in_shape
        | Some p -> output_shape p in_shape
      in
      if out <> skip then
        invalid_arg "Layer.output_shape: residual body/skip shape mismatch";
      out
  | Inception i ->
      let outs = List.map (fun b -> output_shape b in_shape) i.branches in
      let first = List.hd outs in
      List.iter
        (fun o ->
          if o.(1) <> first.(1) || o.(2) <> first.(2) then
            invalid_arg "Layer.output_shape: inception branch spatial mismatch")
        outs;
      [|
        List.fold_left (fun acc o -> acc + o.(0)) 0 outs; first.(1); first.(2);
      |]
  | Seq layers -> List.fold_left (fun s l -> output_shape l s) in_shape layers
  | Dense_block b ->
      [|
        b.block_in_c + (List.length b.convs * b.growth);
        in_shape.(1);
        in_shape.(2);
      |]
