type t = { shape : int array; data : float array }

exception Shape_mismatch of string

let shape_to_string shape =
  "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int shape)) ^ "]"

let product shape = Array.fold_left ( * ) 1 shape

let fail_shape op a b =
  raise
    (Shape_mismatch
       (Printf.sprintf "%s: %s vs %s" op (shape_to_string a) (shape_to_string b)))

(* Construction *)

let create shape v = { shape = Array.copy shape; data = Array.make (product shape) v }
let zeros shape = create shape 0.
let ones shape = create shape 1.

let init shape f =
  { shape = Array.copy shape; data = Array.init (product shape) f }

let of_array shape data =
  if product shape <> Array.length data then
    raise
      (Shape_mismatch
         (Printf.sprintf "of_array: shape %s needs %d elements, got %d"
            (shape_to_string shape) (product shape) (Array.length data)));
  { shape = Array.copy shape; data }

let copy t = { shape = Array.copy t.shape; data = Array.copy t.data }

let randn g ?(mu = 0.) ?(sigma = 1.) shape =
  init shape (fun _ -> Prng.normal g ~mu ~sigma ())

let rand_uniform g ?(lo = 0.) ?(hi = 1.) shape =
  init shape (fun _ -> Prng.float_in g lo hi)

(* Shape accessors *)

let shape t = Array.copy t.shape
let ndim t = Array.length t.shape
let numel t = Array.length t.data

let dim t i =
  if i < 0 || i >= Array.length t.shape then
    invalid_arg (Printf.sprintf "Tensor.dim: axis %d of rank %d" i (ndim t));
  t.shape.(i)

let same_shape a b = a.shape = b.shape

let reshape t shape =
  if product shape <> numel t then
    raise
      (Shape_mismatch
         (Printf.sprintf "reshape: %s (=%d) to %s (=%d)"
            (shape_to_string t.shape) (numel t) (shape_to_string shape)
            (product shape)));
  { shape = Array.copy shape; data = t.data }

let flatten t = { shape = [| numel t |]; data = t.data }

(* Element access *)

let flat_index t idx =
  let n = Array.length t.shape in
  if Array.length idx <> n then
    invalid_arg
      (Printf.sprintf "Tensor.flat_index: %d indices for rank %d"
         (Array.length idx) n);
  let off = ref 0 in
  for i = 0 to n - 1 do
    let k = idx.(i) in
    if k < 0 || k >= t.shape.(i) then
      invalid_arg
        (Printf.sprintf "Tensor.flat_index: index %d out of bounds on axis %d (size %d)"
           k i t.shape.(i));
    off := (!off * t.shape.(i)) + k
  done;
  !off

let get t idx = t.data.(flat_index t idx)
let set t idx v = t.data.(flat_index t idx) <- v
let get_flat t i = t.data.(i)
let set_flat t i v = t.data.(i) <- v

(* Elementwise *)

let map f t = { shape = Array.copy t.shape; data = Array.map f t.data }

let map2 f a b =
  if not (same_shape a b) then fail_shape "map2" a.shape b.shape;
  { shape = Array.copy a.shape; data = Array.map2 f a.data b.data }

let add a b = map2 ( +. ) a b
let scale k t = map (fun v -> k *. v) t
let add_scalar k t = map (fun v -> k +. v) t
(* Specialized (not [map]-based): polymorphic [Array.map] boxes every
   float on its way through the closure, which makes relu a measurable
   slice of inference.  [Array.make] zero-fills, so only positive
   entries need a store. *)
let relu t =
  let d = t.data in
  let n = Array.length d in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get d i in
    if v > 0. then Array.unsafe_set out i v
  done;
  { shape = Array.copy t.shape; data = out }

let add_inplace dst src =
  if not (same_shape dst src) then fail_shape "add_inplace" dst.shape src.shape;
  let d = dst.data and s = src.data in
  for i = 0 to Array.length d - 1 do
    d.(i) <- d.(i) +. s.(i)
  done

let axpy ~alpha x y =
  if not (same_shape x y) then fail_shape "axpy" x.shape y.shape;
  let xd = x.data and yd = y.data in
  for i = 0 to Array.length xd - 1 do
    yd.(i) <- yd.(i) +. (alpha *. xd.(i))
  done

let scale_inplace k t =
  let d = t.data in
  for i = 0 to Array.length d - 1 do
    d.(i) <- k *. d.(i)
  done

let fill t v = Array.fill t.data 0 (Array.length t.data) v

(* Reductions *)

let sum t = Array.fold_left ( +. ) 0. t.data

let mean t =
  if numel t = 0 then invalid_arg "Tensor.mean: empty tensor";
  sum t /. float_of_int (numel t)

let fold_nonempty name f t =
  if numel t = 0 then invalid_arg ("Tensor." ^ name ^ ": empty tensor");
  let acc = ref t.data.(0) in
  for i = 1 to numel t - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let max_val t = fold_nonempty "max_val" Float.max t
let min_val t = fold_nonempty "min_val" Float.min t

let argmax t =
  if numel t = 0 then invalid_arg "Tensor.argmax: empty tensor";
  let best = ref 0 in
  for i = 1 to numel t - 1 do
    if t.data.(i) > t.data.(!best) then best := i
  done;
  !best

let dot a b =
  if not (same_shape a b) then fail_shape "dot" a.shape b.shape;
  (* Shapes validated above, so the reduction can use unsafe accesses. *)
  let ad = a.data and bd = b.data in
  let acc = ref 0. in
  for i = 0 to numel a - 1 do
    acc := !acc +. (Array.unsafe_get ad i *. Array.unsafe_get bd i)
  done;
  !acc

let sq_norm t = dot t t
(* Linear algebra *)

let check_rank name t r =
  if ndim t <> r then
    invalid_arg
      (Printf.sprintf "Tensor.%s: expected rank %d, got %s" name r
         (shape_to_string t.shape))

(* The GEMM kernel, in C (gemm_stubs.c): [od] (pre-initialized by the
   caller, e.g. with zeros or a broadcast bias) gains [a * b].  Each
   output element accumulates in ascending-[p] order whatever [m], [n]
   or the tiling, so results do not depend on how callers batch their
   columns — the invariant the batched inference engine relies on.  The
   kernel reads and writes without bounds checks, so the checks happen
   here. *)
external gemm_f64 :
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  float array ->
  float array ->
  float array ->
  unit = "tensor_gemm_f64_byte" "tensor_gemm_f64"
[@@noalloc]

let gemm_acc ?(ooff = 0) ~m ~k ~n ad bd od =
  if
    m < 0 || k < 0 || n < 0 || ooff < 0
    || m * k > Array.length ad
    || k * n > Array.length bd
    || ooff + (m * n) > Array.length od
  then invalid_arg "Tensor.gemm_acc: operands out of bounds";
  gemm_f64 ooff m k n ad bd od

let matmul a b =
  check_rank "matmul" a 2;
  check_rank "matmul" b 2;
  let m = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and n = b.shape.(1) in
  if k <> k' then fail_shape "matmul" a.shape b.shape;
  let out = zeros [| m; n |] in
  gemm_acc ~m ~k ~n a.data b.data out.data;
  out

let matmul_nt a b =
  check_rank "matmul_nt" a 2;
  check_rank "matmul_nt" b 2;
  let m = a.shape.(0) and k = a.shape.(1) in
  let n = b.shape.(0) and k' = b.shape.(1) in
  if k <> k' then fail_shape "matmul_nt" a.shape b.shape;
  let out = zeros [| m; n |] in
  let ad = a.data and bd = b.data and od = out.data in
  (* Dot-product formulation: out[i, j] = Σ_p b[j, p] * a[i, p], with the
     reduction in ascending-[p] order, so a row of the result does not
     depend on how many rows [a] has. *)
  for i = 0 to m - 1 do
    let aoff = i * k and ooff = i * n in
    for j = 0 to n - 1 do
      let boff = j * k in
      let acc = ref 0. in
      for p = 0 to k - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get bd (boff + p) *. Array.unsafe_get ad (aoff + p))
      done;
      Array.unsafe_set od (ooff + j) !acc
    done
  done;
  out

(* Batched dense layer: rows of [x] are images, [weight] is
   [out_dim; in_dim], [bias] is added per output element AFTER the
   matmul_nt reduction.  Every tensor backend (boxed and unboxed alike)
   shares this one definition of the dense-layer arithmetic, and
   [Layer.forward] runs it on a batch of one. *)
let dense_batch x ~weight ~bias =
  let y = matmul_nt x weight in
  let n = y.shape.(0) and out_dim = y.shape.(1) in
  if bias.shape.(0) <> out_dim then fail_shape "dense_batch" weight.shape bias.shape;
  let yd = y.data and bd = bias.data in
  for img = 0 to n - 1 do
    let off = img * out_dim in
    for j = 0 to out_dim - 1 do
      yd.(off + j) <- yd.(off + j) +. bd.(j)
    done
  done;
  y

let matvec_t a y =
  check_rank "matvec_t" a 2;
  check_rank "matvec_t" y 1;
  let m = a.shape.(0) and k = a.shape.(1) in
  if m <> y.shape.(0) then fail_shape "matvec_t" a.shape y.shape;
  let out = zeros [| k |] in
  let ad = a.data and yd = y.data and od = out.data in
  for i = 0 to m - 1 do
    let yv = yd.(i) and off = i * k in
    if yv <> 0. then
      for p = 0 to k - 1 do
        od.(p) <- od.(p) +. (yv *. ad.(off + p))
      done
  done;
  out

let outer y x =
  check_rank "outer" y 1;
  check_rank "outer" x 1;
  let m = y.shape.(0) and k = x.shape.(0) in
  let out = zeros [| m; k |] in
  let od = out.data in
  for i = 0 to m - 1 do
    let yv = y.data.(i) and off = i * k in
    for p = 0 to k - 1 do
      od.(off + p) <- yv *. x.data.(p)
    done
  done;
  out

let transpose a =
  check_rank "transpose" a 2;
  let m = a.shape.(0) and n = a.shape.(1) in
  init [| n; m |] (fun i ->
      let r = i / m and c = i mod m in
      a.data.((c * n) + r))

(* Convolution: cross-correlation via im2col + GEMM. *)

let conv_out_dim size k stride pad = ((size + (2 * pad) - k) / stride) + 1

(* Truncating integer division rounds toward zero; these round toward
   -inf / +inf for the (possibly negative) padded-coordinate algebra. *)
let div_floor a b = if a >= 0 then a / b else -((-a + b - 1) / b)
let div_ceil a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

(* Copy the patch matrix of one CHW image into [od], whose rows are
   [total_cols] wide, starting at column [col_off].  Out-of-image (padded)
   entries are written as explicit zeros — only the pad fringe, so every
   output position is stored exactly once and callers can hand over an
   uninitialized (reused) buffer without a multi-megabyte memset pass.
   The in-bounds ranges are computed per (ky, kx) tap, so the copy loops
   run without per-element branches on [Array.unsafe_*]. *)
let im2col_into ~stride ~pad ~kh ~kw ~in_c ~h ~w ~oh ~ow ~total_cols ~col_off
    ~xoff xd od =
  for ic = 0 to in_c - 1 do
    for ky = 0 to kh - 1 do
      (* iy = oy*stride - pad + ky must lie in [0, h). *)
      let oy_lo = max 0 (div_ceil (pad - ky) stride)
      and oy_hi = min (oh - 1) (div_floor (h - 1 + pad - ky) stride) in
      for kx = 0 to kw - 1 do
        let row = (((ic * kh) + ky) * kw) + kx in
        let ox_lo = max 0 (div_ceil (pad - kx) stride)
        and ox_hi = min (ow - 1) (div_floor (w - 1 + pad - kx) stride) in
        let rbase = (row * total_cols) + col_off in
        if oy_lo > oy_hi || ox_lo > ox_hi then
          (* This tap never lands in-image: the whole row is padding. *)
          for oy = 0 to oh - 1 do
            Array.fill od (rbase + (oy * ow)) ow 0.
          done
        else begin
        for oy = 0 to oy_lo - 1 do
          Array.fill od (rbase + (oy * ow)) ow 0.
        done;
        for oy = oy_hi + 1 to oh - 1 do
          Array.fill od (rbase + (oy * ow)) ow 0.
        done;
        for oy = oy_lo to oy_hi do
          let iy = (oy * stride) - pad + ky in
          let orow = rbase + (oy * ow)
          and xrow = xoff + (((ic * h) + iy) * w) - pad + kx in
          Array.fill od orow ox_lo 0.;
          Array.fill od (orow + ox_hi + 1) (ow - ox_hi - 1) 0.;
          if stride = 1 then
            for ox = ox_lo to ox_hi do
              Array.unsafe_set od (orow + ox) (Array.unsafe_get xd (xrow + ox))
            done
          else
            for ox = ox_lo to ox_hi do
              Array.unsafe_set od (orow + ox)
                (Array.unsafe_get xd (xrow + (ox * stride)))
            done
        done
        end
      done
    done
  done

let im2col ?(stride = 1) ?(pad = 0) ~kh ~kw x =
  check_rank "im2col" x 3;
  let in_c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let oh = conv_out_dim h kh stride pad and ow = conv_out_dim w kw stride pad in
  if oh <= 0 || ow <= 0 then
    invalid_arg "Tensor.im2col: kernel larger than padded input";
  let rows = in_c * kh * kw and cols = oh * ow in
  let out = zeros [| rows; cols |] in
  im2col_into ~stride ~pad ~kh ~kw ~in_c ~h ~w ~oh ~ow ~total_cols:cols
    ~col_off:0 ~xoff:0 x.data out.data;
  out

(* Per-domain scratch for the batched conv GEMM path.  The per-image
   patch matrix is short-lived but sizable (tens of KB per conv call),
   so allocating it fresh per call hammers the major heap — it exceeds
   the minor-heap large-object threshold.  Each domain keeps one
   growable buffer and reuses it across calls; it is dead before
   [conv2d_gemm_batch] returns, so reuse on the next call is safe even
   when layers chain.  Resident cost per domain is bounded by the
   largest conv it evaluates. *)
let col_scratch : float array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let scratch key len =
  let r = Domain.DLS.get key in
  if Array.length !r < len then r := Array.make len 0.;
  !r

let conv2d_gemm_batch ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  check_rank "conv2d_gemm_batch" x 4;
  check_rank "conv2d_gemm_batch" weight 4;
  let n = x.shape.(0)
  and in_c = x.shape.(1)
  and h = x.shape.(2)
  and w = x.shape.(3) in
  let out_c = weight.shape.(0)
  and win_c = weight.shape.(1)
  and kh = weight.shape.(2)
  and kw = weight.shape.(3) in
  if in_c <> win_c then fail_shape "conv2d_gemm_batch" x.shape weight.shape;
  let oh = conv_out_dim h kh stride pad and ow = conv_out_dim w kw stride pad in
  let kk = in_c * kh * kw and cols = oh * ow in
  let image = in_c * h * w in
  (* Image-by-image GEMMs over a small per-image patch panel, rather
     than one giant [kk; n*cols] GEMM: image [img]'s output block
     [out_c; oh; ow] is contiguous in NCHW, so each GEMM accumulates
     straight into the output tensor (no flat buffer, no scatter pass),
     and the panel plus the weights stay cache-resident across the
     back-to-back per-image GEMMs instead of streaming megabytes per
     chunk.  Per-element accumulation is bias-seeded then ascending-[p],
     so results are independent of the batch width.  im2col writes every
     panel position (padding as explicit zeros), so the reused scratch
     needs no re-zeroing pass. *)
  let patches = scratch col_scratch (kk * cols) in
  let out = zeros [| n; out_c; oh; ow |] in
  let ostride = out_c * cols in
  for img = 0 to n - 1 do
    im2col_into ~stride ~pad ~kh ~kw ~in_c ~h ~w ~oh ~ow ~total_cols:cols
      ~col_off:0 ~xoff:(img * image) x.data patches;
    let obase = img * ostride in
    (match bias with
    | None -> () (* [out] is zero-initialized *)
    | Some bt ->
        for oc = 0 to out_c - 1 do
          Array.fill out.data (obase + (oc * cols)) cols bt.data.(oc)
        done);
    gemm_acc ~ooff:obase ~m:out_c ~k:kk ~n:cols weight.data patches out.data
  done;
  out

let conv2d_backward ?(stride = 1) ?(pad = 0) ~x ~weight dout =
  let in_c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let out_c = weight.shape.(0)
  and kh = weight.shape.(2)
  and kw = weight.shape.(3) in
  let oh = dout.shape.(1) and ow = dout.shape.(2) in
  let dx = zeros [| in_c; h; w |] in
  let dw = zeros (Array.copy weight.shape) in
  let db = zeros [| out_c |] in
  let xd = x.data
  and wd = weight.data
  and dod = dout.data
  and dxd = dx.data
  and dwd = dw.data in
  for oc = 0 to out_c - 1 do
    let dbacc = ref 0. in
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let g = dod.((((oc * oh) + oy) * ow) + ox) in
        if g <> 0. then begin
          dbacc := !dbacc +. g;
          let iy0 = (oy * stride) - pad and ix0 = (ox * stride) - pad in
          for ic = 0 to in_c - 1 do
            let xoff = ic * h * w
            and woff = (((oc * in_c) + ic) * kh) * kw in
            for ky = 0 to kh - 1 do
              let iy = iy0 + ky in
              if iy >= 0 && iy < h then begin
                let xrow = xoff + (iy * w) and wrow = woff + (ky * kw) in
                for kx = 0 to kw - 1 do
                  let ix = ix0 + kx in
                  if ix >= 0 && ix < w then begin
                    dwd.(wrow + kx) <- dwd.(wrow + kx) +. (g *. xd.(xrow + ix));
                    dxd.(xrow + ix) <- dxd.(xrow + ix) +. (g *. wd.(wrow + kx))
                  end
                done
              end
            done
          done
        end
      done
    done;
    db.data.(oc) <- !dbacc
  done;
  (dx, dw, db)

(* Pooling *)

let max_pool2d ?stride ~size x =
  check_rank "max_pool2d" x 3;
  let stride = match stride with None -> size | Some s -> s in
  let c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let oh = conv_out_dim h size stride 0 and ow = conv_out_dim w size stride 0 in
  if oh <= 0 || ow <= 0 then invalid_arg "Tensor.max_pool2d: window too large";
  let out = zeros [| c; oh; ow |] in
  let switches = Array.make (c * oh * ow) 0 in
  let xd = x.data and od = out.data in
  (* [conv_out_dim] with pad 0 guarantees (oh-1)*stride + size <= h (and
     likewise for width), so every window is fully in-bounds: the scan
     runs branch- and bounds-check-free. *)
  for ch = 0 to c - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let best = ref neg_infinity and besti = ref 0 in
        let base = (((ch * h) + (oy * stride)) * w) + (ox * stride) in
        for ky = 0 to size - 1 do
          let rowb = base + (ky * w) in
          for kx = 0 to size - 1 do
            begin
              let idx = rowb + kx in
              let v = Array.unsafe_get xd idx in
              if v > !best then begin
                best := v;
                besti := idx
              end
            end
          done
        done;
        let oidx = (((ch * oh) + oy) * ow) + ox in
        od.(oidx) <- !best;
        switches.(oidx) <- !besti
      done
    done
  done;
  (out, switches)

let max_pool2d_backward ~x_shape ~switches dout =
  let dx = zeros x_shape in
  let dod = dout.data and dxd = dx.data in
  for i = 0 to Array.length dod - 1 do
    dxd.(switches.(i)) <- dxd.(switches.(i)) +. dod.(i)
  done;
  dx

(* Batched (NCHW) pooling: pooling acts per channel plane, so an NCHW
   batch folds to [(n*c); h; w], runs the single-image kernel, and
   unfolds.  Kept here so every tensor backend composes the identical
   kernels. *)

let nchw name x =
  check_rank name x 4;
  (x.shape.(0), x.shape.(1), x.shape.(2), x.shape.(3))

let fold_nc name x =
  let n, c, h, w = nchw name x in
  (n, c, reshape x [| n * c; h; w |])

let max_pool2d_batch ?stride ~size x =
  let n, c, folded = fold_nc "max_pool2d_batch" x in
  let y, _ = max_pool2d ?stride ~size folded in
  reshape y [| n; c; y.shape.(1); y.shape.(2) |]

(* Per-plane statistics of an NCHW tensor: plane [p] (image [p / c],
   channel [p mod c]) gets its mean and [1/sqrt(var + eps)].  Reductions
   run in ascending index order, so an image's statistics do not depend
   on the rest of the batch.  The one copy of this loop: the forward
   normalization and [Layer]'s backward pass both read it. *)
let channel_stats ~eps x =
  let nb, c, h, w = nchw "channel_stats" x in
  let hw = h * w in
  let m = float_of_int hw in
  let mu = Array.make (nb * c) 0. and inv_std = Array.make (nb * c) 0. in
  let xd = x.data in
  for plane = 0 to (nb * c) - 1 do
    let off = plane * hw in
    let acc = ref 0. in
    for i = 0 to hw - 1 do
      acc := !acc +. Array.unsafe_get xd (off + i)
    done;
    let mean = !acc /. m in
    let vacc = ref 0. in
    for i = 0 to hw - 1 do
      let d = Array.unsafe_get xd (off + i) -. mean in
      vacc := !vacc +. (d *. d)
    done;
    mu.(plane) <- mean;
    inv_std.(plane) <- 1. /. sqrt ((!vacc /. m) +. eps)
  done;
  (mu, inv_std)

(* Batched per-channel normalization: each (image, channel) plane is
   standardized by its own [channel_stats], then scaled/shifted by the
   per-channel [gamma]/[beta]. *)
let channel_norm_batch ~gamma ~beta ~eps x =
  let nb, c, h, w = nchw "channel_norm_batch" x in
  if gamma.shape.(0) <> c || beta.shape.(0) <> c then
    fail_shape "channel_norm_batch" x.shape gamma.shape;
  let mu, inv_std = channel_stats ~eps x in
  let hw = h * w in
  let y = zeros [| nb; c; h; w |] in
  let xd = x.data and yd = y.data in
  for plane = 0 to (nb * c) - 1 do
    let off = plane * hw and ch = plane mod c in
    let mean = mu.(plane) and istd = inv_std.(plane) in
    let gam = gamma.data.(ch) and bet = beta.data.(ch) in
    for i = 0 to hw - 1 do
      let xhat = (Array.unsafe_get xd (off + i) -. mean) *. istd in
      Array.unsafe_set yd (off + i) ((gam *. xhat) +. bet)
    done
  done;
  y

(* Softmax and losses *)

(* Row-wise softmax over an [n; classes] matrix: max, exp-shift, sum,
   scale by 1/z, each row on its own.  The one softmax loop of the
   plans' scores and [Network.scores]; the training loss writes out the
   same expressions below. *)
let softmax_rows l =
  check_rank "softmax_rows" l 2;
  let n = l.shape.(0) and classes = l.shape.(1) in
  let out = zeros [| n; classes |] in
  let ld = l.data and od = out.data in
  for img = 0 to n - 1 do
    let off = img * classes in
    let m = ref ld.(off) in
    for j = 1 to classes - 1 do
      if ld.(off + j) > !m then m := ld.(off + j)
    done;
    let z = ref 0. in
    for j = 0 to classes - 1 do
      let e = exp (ld.(off + j) -. !m) in
      od.(off + j) <- e;
      z := !z +. e
    done;
    let inv = 1. /. !z in
    for j = 0 to classes - 1 do
      od.(off + j) <- inv *. od.(off + j)
    done
  done;
  out

let softmax t =
  check_rank "softmax" t 1;
  let n = numel t in
  reshape (softmax_rows (reshape t [| 1; n |])) [| n |]

(* The loss [m + log z - l.(label)] and its gradient [softmax - onehot
   label] from one pass of [softmax_rows]' expressions, which this
   keeps [m] and [z] of.  Written out rather than shared: a shared row
   kernel returning the log-sum-exp is not inlined across the loop, and
   its boxed result would cost the plans' scores two words per row. *)
let cross_entropy_with_grad logits label =
  check_rank "cross_entropy" logits 1;
  let n = numel logits in
  if label < 0 || label >= n then
    invalid_arg "Tensor.cross_entropy: label out of range";
  let ld = logits.data in
  let m = ref ld.(0) in
  for j = 1 to n - 1 do
    if ld.(j) > !m then m := ld.(j)
  done;
  let grad = zeros [| n |] in
  let gd = grad.data in
  let z = ref 0. in
  for j = 0 to n - 1 do
    let e = exp (ld.(j) -. !m) in
    gd.(j) <- e;
    z := !z +. e
  done;
  let inv = 1. /. !z in
  for j = 0 to n - 1 do
    gd.(j) <- inv *. gd.(j)
  done;
  gd.(label) <- gd.(label) -. 1.;
  (-.(ld.(label) -. (!m +. log !z)), grad)


(* Misc *)

let concat_channels_batch ts =
  match ts with
  | [] -> invalid_arg "Tensor.concat_channels_batch: empty list"
  | first :: _ ->
      List.iter (fun t -> check_rank "concat_channels_batch" t 4) ts;
      let n = first.shape.(0)
      and h = first.shape.(2)
      and w = first.shape.(3) in
      List.iter
        (fun t ->
          if t.shape.(0) <> n || t.shape.(2) <> h || t.shape.(3) <> w then
            fail_shape "concat_channels_batch" first.shape t.shape)
        ts;
      let total_c = List.fold_left (fun acc t -> acc + t.shape.(1)) 0 ts in
      let plane = h * w in
      let out = zeros [| n; total_c; h; w |] in
      for img = 0 to n - 1 do
        let base = img * total_c * plane in
        let off = ref 0 in
        List.iter
          (fun t ->
            let c = t.shape.(1) in
            Array.blit t.data (img * c * plane) out.data (base + !off)
              (c * plane);
            off := !off + (c * plane))
          ts
      done;
      out

let split_channels t counts =
  check_rank "split_channels" t 3;
  let h = t.shape.(1) and w = t.shape.(2) in
  let total = List.fold_left ( + ) 0 counts in
  if total <> t.shape.(0) then
    invalid_arg "Tensor.split_channels: channel counts do not sum to shape";
  let off = ref 0 in
  List.map
    (fun c ->
      let piece = zeros [| c; h; w |] in
      Array.blit t.data !off piece.data 0 (c * h * w);
      off := !off + (c * h * w);
      piece)
    counts

let equal ?(eps = 1e-9) a b =
  same_shape a b
  && (let ok = ref true in
      for i = 0 to numel a - 1 do
        if Float.abs (a.data.(i) -. b.data.(i)) > eps then ok := false
      done;
      !ok)

