(* Float32 Bigarray backend: flat unboxed storage plus an explicit shape
   descriptor (the Manticore flattened-array idiom — data is never
   nested; shape is metadata on the side).

   Storage is float32 ([Bigarray.Array1], C layout) — half the memory
   traffic of the boxed float64 path, and off the OCaml heap entirely,
   so attack workloads stop churning the major heap with per-layer
   activation arrays.  All arithmetic still happens in float64: with the
   element kind statically known, [Array1.unsafe_get] compiles to an
   inline load+convert, and accumulators live in unboxed float64
   registers.  Only the final store rounds to float32 — which is why the
   differential contract for this backend is the tolerance policy
   (argmax/success/query identity, per-logit |Δ| ≤ tol) rather than
   bit-equality.

   The GEMM is the boxed backend's C kernel (lib/tensor/gemm_stubs.c),
   entered with float32 weights and a float32 output: 4x8 register
   tiles vectorised across the output columns, ascending-k float64
   accumulation, one rounding at the store.  A conv gathers its input
   straight into the GEMM's per-domain float64 B panel through a
   per-geometry index table.  A forward runs on the domain that asked
   for it: the parallelism is across images, one level up. *)

type ba = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { shape : int array; data : ba }

let name = "f32"
let fuse = true
let stats = Tensor_sig.Stats.make name

let product shape = Array.fold_left ( * ) 1 shape

let alloc len : ba = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout len

let create shape =
  let data = alloc (product shape) in
  { shape = Array.copy shape; data }

let shape t = Array.copy t.shape
let numel t = product t.shape

let reshape t shape =
  if product shape <> numel t then
    invalid_arg "Tensor_f32.reshape: element count mismatch";
  { shape = Array.copy shape; data = t.data }

let of_tensor (src : Tensor.t) =
  let t = create (Tensor.shape src) in
  let d = t.data and s = src.Tensor.data in
  for i = 0 to Array.length s - 1 do
    Bigarray.Array1.unsafe_set d i (Array.unsafe_get s i)
  done;
  t

let to_tensor t =
  let d = t.data in
  Tensor.init t.shape (fun i -> Bigarray.Array1.unsafe_get d i)

let get_flat t i = Bigarray.Array1.get t.data i

(* Elementwise *)

let relu t =
  let n = numel t in
  let out = create t.shape in
  let s = t.data and d = out.data in
  for i = 0 to n - 1 do
    let v = Bigarray.Array1.unsafe_get s i in
    Bigarray.Array1.unsafe_set d i (if v > 0. then v else 0.)
  done;
  out

let add a b =
  if a.shape <> b.shape then invalid_arg "Tensor_f32.add: shape mismatch";
  let n = numel a in
  let out = create a.shape in
  let ad = a.data and bd = b.data and od = out.data in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set od i
      (Bigarray.Array1.unsafe_get ad i +. Bigarray.Array1.unsafe_get bd i)
  done;
  out

(* GEMM: [od](ooff + i*n + j) += Σ_p ad(i*k + p) * b64(p*n + j) for
   rows i in [0, m): float32 weights, a float64 [(k, n)] row-major B
   panel, float64 accumulation seeded from [od] in ascending-p order,
   one rounding to float32 at the store.  The kernel is the boxed
   backend's, in C (lib/tensor/gemm_stubs.c): it reads the float32
   weights directly (widening is exact), so the one widening pass left
   is the caller's B panel — a conv gathers its input straight into it
   (see [gather_into]) and [matmul] widens its operand. *)
external gemm_f32 :
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  ba ->
  float array ->
  ba ->
  unit = "tensor_gemm_f32_byte" "tensor_gemm_f32"
[@@noalloc]

let gemm_rows ?(ooff = 0) ~m ~k ~n (ad : ba) (b64 : float array) (od : ba) =
  if
    m < 0 || k < 0 || n < 0 || ooff < 0
    || m * k > Bigarray.Array1.dim ad
    || k * n > Array.length b64
    || ooff + (m * n) > Bigarray.Array1.dim od
  then invalid_arg "Tensor_f32.gemm_rows: operands out of bounds";
  gemm_f32 ooff m k n ad b64 od

(* The B panel of this domain's current GEMM: [(k, n)] float64,
   row-major.  A conv gathers into it and [matmul] widens into it. *)
let panel_scratch : float array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let f64_scratch key len =
  let r = Domain.DLS.get key in
  if Array.length !r < len then r := Array.make len 0.;
  !r

(* Matmul on f32 tensors — the qcheck reference surface for the GEMM
   kernel ([a : (m, k)], [b : (k, n)]). *)
let matmul a b =
  if Array.length a.shape <> 2 || Array.length b.shape <> 2 then
    invalid_arg "Tensor_f32.matmul: expected rank-2 operands";
  let m = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and n = b.shape.(1) in
  if k <> k' then invalid_arg "Tensor_f32.matmul: inner dimension mismatch";
  let b64 = f64_scratch panel_scratch (k * n) in
  for i = 0 to (k * n) - 1 do
    Array.unsafe_set b64 i (Bigarray.Array1.unsafe_get b.data i)
  done;
  let out = create [| m; n |] in
  Bigarray.Array1.fill out.data 0.;
  gemm_rows ~m ~k ~n a.data b64 out.data;
  out

(* {1 Gather: a conv's input straight into the float64 B panel}

   A full conv's B operand is the im2col matrix of its input: panel
   element [p * cols + j], for tap [p = (ic*kh + ky)*kw + kx] and output
   position [j = oy*ow + ox], holds input pixel
   [(ic, oy*stride - pad + ky, ox*stride - pad + kx)], or +0.0 where
   that falls in the padding.  One table per conv geometry maps every
   panel element to its offset in the CHW input, -1 for padding, so the
   gather is one flat loop with no per-row range arithmetic (vgg_tiny's
   inner output rows hold 4 or 8 elements).  Widening float32 to
   float64 is exact, so the GEMM sums the input's own values.

   Tables are built once, on first use of a geometry, and only read
   after that.  All domains share them through one atomic list (a
   domain that loses a publishing race retries and finds the winner's
   table), and they live off the OCaml heap as int Bigarrays. *)

let conv_out_dim size k stride pad = ((size + (2 * pad) - k) / stride) + 1
let div_floor a b = if a >= 0 then a / b else -((-a + b - 1) / b)
let div_ceil a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type gather = {
  g_stride : int;
  g_pad : int;
  g_kh : int;
  g_kw : int;
  g_in_c : int;
  g_h : int;
  g_w : int;
  src : table;
}

let gathers : gather list Atomic.t = Atomic.make []

(* Raises [Not_found] rather than returning an option: the lookup runs
   on every conv call and allocates nothing. *)
let rec find_gather ~stride ~pad ~kh ~kw ~in_c ~h ~w = function
  | [] -> raise_notrace Not_found
  | g :: tl ->
      if
        g.g_stride = stride && g.g_pad = pad && g.g_kh = kh && g.g_kw = kw
        && g.g_in_c = in_c && g.g_h = h && g.g_w = w
      then g.src
      else find_gather ~stride ~pad ~kh ~kw ~in_c ~h ~w tl

let build_gather ~stride ~pad ~kh ~kw ~in_c ~h ~w =
  let oh = conv_out_dim h kh stride pad and ow = conv_out_dim w kw stride pad in
  let cols = oh * ow in
  let src =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout
      (in_c * kh * kw * cols)
  in
  for ic = 0 to in_c - 1 do
    for ky = 0 to kh - 1 do
      for kx = 0 to kw - 1 do
        let row = ((((ic * kh) + ky) * kw) + kx) * cols in
        for oy = 0 to oh - 1 do
          let iy = (oy * stride) - pad + ky in
          for ox = 0 to ow - 1 do
            let ix = (ox * stride) - pad + kx in
            Bigarray.Array1.unsafe_set src
              (row + (oy * ow) + ox)
              (if iy >= 0 && iy < h && ix >= 0 && ix < w then
                 (((ic * h) + iy) * w) + ix
               else -1)
          done
        done
      done
    done
  done;
  {
    g_stride = stride;
    g_pad = pad;
    g_kh = kh;
    g_kw = kw;
    g_in_c = in_c;
    g_h = h;
    g_w = w;
    src;
  }

let rec gather_table ~stride ~pad ~kh ~kw ~in_c ~h ~w =
  let known = Atomic.get gathers in
  match find_gather ~stride ~pad ~kh ~kw ~in_c ~h ~w known with
  | src -> src
  | exception Not_found ->
      let g = build_gather ~stride ~pad ~kh ~kw ~in_c ~h ~w in
      if Atomic.compare_and_set gathers known (g :: known) then g.src
      else gather_table ~stride ~pad ~kh ~kw ~in_c ~h ~w

(* Fill [b64]'s first [len] elements from the image at [xoff]. *)
let gather_into (src : table) (xd : ba) xoff (b64 : float array) len =
  for q = 0 to len - 1 do
    let i = Bigarray.Array1.unsafe_get src q in
    Array.unsafe_set b64 q
      (if i < 0 then 0. else Bigarray.Array1.unsafe_get xd (xoff + i))
  done

(* Single-image im2col to a fresh float32 panel, through the conv's own
   gather — the qcheck layout-test surface.  Narrowing the gathered
   float64 values back to float32 is exact. *)
let im2col ~stride ~pad ~kh ~kw x =
  if Array.length x.shape <> 3 then
    invalid_arg "Tensor_f32.im2col: expected a CHW tensor";
  let in_c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let oh = conv_out_dim h kh stride pad and ow = conv_out_dim w kw stride pad in
  if oh <= 0 || ow <= 0 then
    invalid_arg "Tensor_f32.im2col: kernel larger than padded input";
  let len = in_c * kh * kw * oh * ow in
  let b64 = f64_scratch panel_scratch len in
  gather_into
    (gather_table ~stride ~pad ~kh ~kw ~in_c ~h ~w)
    x.data 0 b64 len;
  let out = create [| in_c * kh * kw; oh * ow |] in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set out.data i (Array.unsafe_get b64 i)
  done;
  out

(* Pooling over NCHW: plane-by-plane scans (the plane of index [p]
   belongs to image [p / c]); windows are fully in-bounds by the
   [conv_out_dim] contract. *)

let pool_dims name ~stride ~size x =
  if Array.length x.shape <> 4 then
    invalid_arg ("Tensor_f32." ^ name ^ ": expected an NCHW tensor");
  let h = x.shape.(2) and w = x.shape.(3) in
  let oh = conv_out_dim h size stride 0 and ow = conv_out_dim w size stride 0 in
  if oh <= 0 || ow <= 0 then
    invalid_arg ("Tensor_f32." ^ name ^ ": window too large");
  (x.shape.(0), x.shape.(1), h, w, oh, ow)

let max_pool2d_batch ~stride ~size x =
  let n, c, h, w, oh, ow = pool_dims "max_pool2d_batch" ~stride ~size x in
  let out = create [| n; c; oh; ow |] in
  let xd = x.data and od = out.data in
  for p = 0 to (n * c) - 1 do
    let xbase = p * h * w and obase = p * oh * ow in
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let best = ref neg_infinity in
        let base = xbase + ((oy * stride) * w) + (ox * stride) in
        for ky = 0 to size - 1 do
          let rowb = base + (ky * w) in
          for kx = 0 to size - 1 do
            let v = Bigarray.Array1.unsafe_get xd (rowb + kx) in
            if v > !best then best := v
          done
        done;
        Bigarray.Array1.unsafe_set od (obase + (oy * ow) + ox) !best
      done
    done
  done;
  out

(* One plane of an epilogue, or one image's dense input row, widened to
   float64: the norm and pool passes below and [dense_batch] read it
   instead of re-reading float32.  Widening is exact, so every sum and
   comparison sees the same values. *)
let vec_scratch : float array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

(* A fused max-pool's geometry: [size]x[size] windows at [stride] over
   planes [w] wide, [oh]x[ow] pooled outputs per plane. *)
type window = { size : int; stride : int; w : int; oh : int; ow : int }

(* Max-pool one normalized float64 plane into [dst] at [obase], with
   the relu folded in: each window's max starts from +0.0, and
   [v > best] skips NaN, so the result is the max of the clamped values.
   Only ever called after a relu, where every clamped value is +0.0 or
   positive: there float32 rounding is monotone and blind to zero signs,
   so the one rounding at the store equals the max of the unfused path's
   rounded values, bit for bit.  2x2 windows, every zoo net's, run
   unrolled (2.7x the generic loop on vgg_tiny's planes, EXPERIMENTS.md
   "Fused pool and float64 epilogue"). *)
let pool_plane win (s64 : float array) (dst : ba) obase =
  let { size; stride; w; oh; ow } = win in
  for oy = 0 to oh - 1 do
    let rowb = oy * stride * w and orow = obase + (oy * ow) in
    for ox = 0 to ow - 1 do
      let base = rowb + (ox * stride) in
      let best =
        if size = 2 then begin
          let v = Array.unsafe_get s64 base in
          let best = if v > 0. then v else 0. in
          let v = Array.unsafe_get s64 (base + 1) in
          let best = if v > best then v else best in
          let v = Array.unsafe_get s64 (base + w) in
          let best = if v > best then v else best in
          let v = Array.unsafe_get s64 (base + w + 1) in
          if v > best then v else best
        end
        else begin
          let best = ref 0. in
          for ky = 0 to size - 1 do
            for kx = 0 to size - 1 do
              let v = Array.unsafe_get s64 (base + (ky * w) + kx) in
              if v > !best then best := v
            done
          done;
          !best
        end
      in
      Bigarray.Array1.unsafe_set dst (orow + ox) best
    done
  done

(* The shared normalization kernel: per-(image, channel)-plane mean and
   1/sqrt(var + eps) in float64, then scale/shift (and optionally the
   relu clamp) on the store.  The sum pass widens the plane once into
   float64 scratch, and the variance and scale/shift passes read that
   copy; the sums keep their ascending order.  Reading [src] and writing
   [dst] plane by plane makes in-place use ([src == dst], the fused conv
   epilogue) produce exactly the bits of the out-of-place unfused call:
   rounding happens at the same single store either way, and
   [round(max 0 v) = max 0 (round v)] for round-to-nearest, so folding
   the clamp before the store changes nothing either.  The clamp maps
   NaN to +0.0, like [relu].  Under [?window] (only with [relu]) the
   normalized plane stays in the scratch and [pool_plane] stores one
   float32 per pooled output instead. *)
let norm_planes ~relu ?window ~c ~plane (gd : ba) (bd : ba) ~eps ~nplanes
    (src : ba) (dst : ba) =
  let m = float_of_int plane in
  let s64 = f64_scratch vec_scratch plane in
  for p = 0 to nplanes - 1 do
    let off = p * plane and ch = p mod c in
    let acc = ref 0. in
    for i = 0 to plane - 1 do
      let v = Bigarray.Array1.unsafe_get src (off + i) in
      Array.unsafe_set s64 i v;
      acc := !acc +. v
    done;
    let mean = !acc /. m in
    let vacc = ref 0. in
    for i = 0 to plane - 1 do
      let d = Array.unsafe_get s64 i -. mean in
      vacc := !vacc +. (d *. d)
    done;
    let istd = 1. /. sqrt ((!vacc /. m) +. eps) in
    let gam = Bigarray.Array1.unsafe_get gd ch
    and bet = Bigarray.Array1.unsafe_get bd ch in
    match window with
    | None ->
        for i = 0 to plane - 1 do
          let xhat = (Array.unsafe_get s64 i -. mean) *. istd in
          let v = (gam *. xhat) +. bet in
          Bigarray.Array1.unsafe_set dst (off + i)
            (if relu && not (v > 0.) then 0. else v)
        done
    | Some win ->
        for i = 0 to plane - 1 do
          let xhat = (Array.unsafe_get s64 i -. mean) *. istd in
          Array.unsafe_set s64 i ((gam *. xhat) +. bet)
        done;
        pool_plane win s64 dst (p * win.oh * win.ow)
  done

let channel_norm_batch ~gamma ~beta ~eps x =
  if Array.length x.shape <> 4 then
    invalid_arg "Tensor_f32.channel_norm_batch: expected an NCHW tensor";
  let nb = x.shape.(0) and c = x.shape.(1) in
  let plane = x.shape.(2) * x.shape.(3) in
  if gamma.shape.(0) <> c || beta.shape.(0) <> c then
    invalid_arg "Tensor_f32.channel_norm_batch: gamma/beta arity mismatch";
  let out = create x.shape in
  norm_planes ~relu:false ~c ~plane gamma.data beta.data ~eps
    ~nplanes:(nb * c) x.data out.data;
  out

(* The clamp is [not (v > 0.)], not [v <= 0.], so NaN maps to +0.0 as
   in [relu] and the boxed engine. *)
let relu_inplace (d : ba) n =
  for i = 0 to n - 1 do
    let v = Bigarray.Array1.unsafe_get d i in
    if not (v > 0.) then Bigarray.Array1.unsafe_set d i 0.
  done

(* The value every conv output element starts from before its dot
   product accumulates on top: the bias, with a -0.0 bias seeding +0.0.
   The GEMM path and the incremental path both start from it, so neither
   can drift from the other. *)
let[@inline] seed_bias (bd : ba) oc =
  let b = Bigarray.Array1.unsafe_get bd oc in
  if b <> 0. then b else 0.

(* {1 Incremental input convolution}

   An attack query is the clean image with one pixel changed, and a 3x3
   pad-1 conv output column reads only the 3x3 input neighbourhood
   around it, so at most 9 of the input conv's columns can differ from
   the clean image's.  A memo keeps, per domain, the input and the raw
   conv output (before the fused epilogue) of the last image whose conv
   ran in full.  An image whose bitwise differences from that reference
   touch at most [oh*ow/8] output columns copies the reference's raw
   output and recomputes only those columns; any other image runs the
   gather+GEMM and becomes the new reference.

   A recomputed column is bit-identical to the GEMM's: the GEMM computes
   every output element as the f32 rounding of [seed_bias] plus the
   products of the weight row and the im2col column, accumulated in
   float64 in ascending-p order (whatever the tiling or blocking), and
   the recompute runs exactly that sum over the same column, padding
   zeros included.  An untouched column reads only input values that
   are bitwise equal to the reference's, so the reference's stored
   value is already the GEMM's.

   A plan is shared by the domains of a per-image pool, so the state is
   per domain, under one module-wide [Domain.DLS] key (OCaml never
   frees a DLS key, and the harness compiles a plan per attacked
   image).  Each domain holds one state; a call with other operands
   (another plan) replaces it, so that call's first image runs in
   full.  No production path interleaves plans on one domain: a domain
   runs one attack to completion, and oracle clones share their
   plan. *)

type memo_state = {
  m_weight : ba;  (* the operands the reference was computed with *)
  m_bias : ba;
  m_stride : int;
  m_pad : int;
  m_dims : int array;  (* input [| in_c; h; w |] *)
  ref_in : ba;  (* input of the last image whose conv ran in full *)
  ref_out : ba;  (* its raw conv output, before the epilogue *)
  mutable valid : bool;
  marks : Bytes.t;  (* per output column: touched by a differing pixel *)
  touched : int array;  (* the marked columns, in marking order *)
  col : float array;  (* one im2col column, widened to float64 *)
  w64 : float array;  (* the weights, widened to float64 *)
}

type slot = { mutable state : memo_state option; mutable recomputed : int }

(* The memo carries no data: the state is per domain, keyed on the
   operands. *)
type conv_memo = unit

let conv_memo () = ()

let memo_slot : slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { state = None; recomputed = 0 })

let recomputed_cols () = (Domain.DLS.get memo_slot).recomputed

(* This domain's state for these operands and input dims, replacing it
   (with no reference yet) when they changed. *)
let memo_state ~weight ~bias ~stride ~pad ~in_c ~h ~w ~out_c ~kk ~cols =
  let slot = Domain.DLS.get memo_slot in
  match slot.state with
  | Some st
    when st.m_weight == weight.data && st.m_bias == bias.data
         && st.m_stride = stride && st.m_pad = pad
         && st.m_dims.(0) = in_c && st.m_dims.(1) = h && st.m_dims.(2) = w ->
      st
  | _ ->
      let st =
        {
          m_weight = weight.data;
          m_bias = bias.data;
          m_stride = stride;
          m_pad = pad;
          m_dims = [| in_c; h; w |];
          ref_in = alloc (in_c * h * w);
          ref_out = alloc (out_c * cols);
          valid = false;
          marks = Bytes.make cols '\000';
          touched = Array.make cols 0;
          col = Array.make kk 0.;
          w64 =
            Array.init (out_c * kk) (fun i ->
                Bigarray.Array1.unsafe_get weight.data i);
        }
      in
      slot.state <- Some st;
      st

(* Mark the output columns whose receptive field holds an input pixel
   that differs bitwise from the reference.  Returns how many, or -1
   as soon as they exceed [limit]. *)
let diff_cols st ~stride ~pad ~kh ~kw ~oh ~ow ~limit (xd : ba) xoff =
  let in_c = st.m_dims.(0) and h = st.m_dims.(1) and w = st.m_dims.(2) in
  let hw = h * w in
  Bytes.fill st.marks 0 (oh * ow) '\000';
  let n = ref 0 in
  try
    for i = 0 to (in_c * hw) - 1 do
      (* Typed [int64] comparison: unboxed, no allocation. *)
      if
        Int64.bits_of_float (Bigarray.Array1.unsafe_get xd (xoff + i))
        <> Int64.bits_of_float (Bigarray.Array1.unsafe_get st.ref_in i)
      then begin
        let pos = i mod hw in
        let iy = pos / w and ix = pos mod w in
        let oy_lo = max 0 (div_ceil (iy + pad - kh + 1) stride)
        and oy_hi = min (oh - 1) (div_floor (iy + pad) stride)
        and ox_lo = max 0 (div_ceil (ix + pad - kw + 1) stride)
        and ox_hi = min (ow - 1) (div_floor (ix + pad) stride) in
        for oy = oy_lo to oy_hi do
          for ox = ox_lo to ox_hi do
            let j = (oy * ow) + ox in
            if Bytes.unsafe_get st.marks j = '\000' then begin
              Bytes.unsafe_set st.marks j '\001';
              if !n >= limit then raise_notrace Exit;
              st.touched.(!n) <- j;
              incr n
            end
          done
        done
      end
    done;
    !n
  with Exit -> -1

(* Recompute the [n] marked columns of one image's raw output at [obase]
   (which already holds the reference's): seed, then the ascending-p
   float64 dot product of each weight row with the im2col column. *)
let recompute_cols st ~n ~stride ~pad ~kh ~kw ~ow ~out_c ~cols (bd : ba)
    (xd : ba) xoff (od : ba) obase =
  let in_c = st.m_dims.(0) and h = st.m_dims.(1) and w = st.m_dims.(2) in
  let kk = in_c * kh * kw and col = st.col and w64 = st.w64 in
  for t = 0 to n - 1 do
    let j = st.touched.(t) in
    let oy = j / ow and ox = j mod ow in
    for ic = 0 to in_c - 1 do
      for ky = 0 to kh - 1 do
        let iy = (oy * stride) - pad + ky in
        for kx = 0 to kw - 1 do
          let ix = (ox * stride) - pad + kx in
          Array.unsafe_set col
            ((((ic * kh) + ky) * kw) + kx)
            (if iy >= 0 && iy < h && ix >= 0 && ix < w then
               Bigarray.Array1.unsafe_get xd (xoff + (((ic * h) + iy) * w) + ix)
             else 0.)
        done
      done
    done;
    for o = 0 to out_c - 1 do
      let wbase = o * kk in
      let acc = ref (seed_bias bd o) in
      for p = 0 to kk - 1 do
        acc :=
          !acc +. (Array.unsafe_get w64 (wbase + p) *. Array.unsafe_get col p)
      done;
      Bigarray.Array1.unsafe_set od (obase + (o * cols) + j) !acc
    done
  done

let conv2d_batch ?memo ~stride ~pad ~weight ~bias ?norm ?(relu = false)
    ?max_pool x =
  if Array.length x.shape <> 4 || Array.length weight.shape <> 4 then
    invalid_arg "Tensor_f32.conv2d_batch: expected NCHW input and OIHW weight";
  let n = x.shape.(0)
  and in_c = x.shape.(1)
  and h = x.shape.(2)
  and w = x.shape.(3) in
  let out_c = weight.shape.(0)
  and win_c = weight.shape.(1)
  and kh = weight.shape.(2)
  and kw = weight.shape.(3) in
  if in_c <> win_c then
    invalid_arg "Tensor_f32.conv2d_batch: channel mismatch";
  let oh = conv_out_dim h kh stride pad and ow = conv_out_dim w kw stride pad in
  if oh <= 0 || ow <= 0 then
    invalid_arg "Tensor_f32.conv2d_batch: kernel larger than padded input";
  let kk = in_c * kh * kw and cols = oh * ow in
  let image = in_c * h * w in
  let t0 = Unix.gettimeofday () in
  let src = gather_table ~stride ~pad ~kh ~kw ~in_c ~h ~w in
  let b64 = f64_scratch panel_scratch (kk * cols) in
  let out = create [| n; out_c; oh; ow |] in
  let od = out.data and bd = bias.data and wd = weight.data and xd = x.data in
  let ostride = out_c * cols in
  let st =
    Option.map
      (fun () ->
        memo_state ~weight ~bias ~stride ~pad ~in_c ~h ~w ~out_c ~kk ~cols)
      memo
  in
  (* The incremental cost bound: past an eighth of the columns the
     scalar recompute stops beating the vectorised GEMM by a safe margin
     (DESIGN.md section 5 has the measurement). *)
  let limit = cols / 8 in
  let full = ref 0 and recomputed = ref 0 in
  for img = 0 to n - 1 do
    let xoff = img * image and obase = img * ostride in
    let touched =
      match st with
      | Some st when st.valid ->
          diff_cols st ~stride ~pad ~kh ~kw ~oh ~ow ~limit xd xoff
      | _ -> -1
    in
    match st with
    | Some st when touched >= 0 ->
        Bigarray.Array1.(blit st.ref_out (sub od obase ostride));
        recompute_cols st ~n:touched ~stride ~pad ~kh ~kw ~ow ~out_c ~cols bd
          xd xoff od obase;
        recomputed := !recomputed + touched
    | _ ->
        gather_into src xd xoff b64 (kk * cols);
        (* Seed output rows with the bias so the GEMM accumulates on top —
           one store per element instead of a zero pass plus an add pass. *)
        for oc = 0 to out_c - 1 do
          let b = seed_bias bd oc and row = obase + (oc * cols) in
          for i = row to row + cols - 1 do
            Bigarray.Array1.unsafe_set od i b
          done
        done;
        gemm_rows ~ooff:obase ~m:out_c ~k:kk ~n:cols wd b64 od;
        incr full;
        (match st with
        | Some st ->
            Bigarray.Array1.(blit (sub xd xoff image) st.ref_in);
            Bigarray.Array1.(blit (sub od obase ostride) st.ref_out);
            st.valid <- true
        | None -> ())
  done;
  if Option.is_some memo then
    (Domain.DLS.get memo_slot).recomputed <- !recomputed;
  Telemetry.Counter.add stats.Tensor_sig.Stats.panels !full;
  Telemetry.Counter.add stats.Tensor_sig.Stats.flops
    (2 * out_c * kk * ((!full * cols) + !recomputed));
  (* Fused epilogue: normalize and clamp in place on the cache-hot conv
     output — no intermediate tensors, one pass instead of three.  A
     max-pool after a norm and relu fuses too: the normalized plane is
     pooled from float64 scratch straight into the pooled output.
     Without a relu, or without a norm (whose float64 plane the pool
     would otherwise have to widen for itself), it runs unfused, on the
     epilogue's result. *)
  let window =
    match (max_pool, norm) with
    | Some (size, stride), Some _ when relu ->
        let ph = conv_out_dim oh size stride 0
        and pw = conv_out_dim ow size stride 0 in
        if ph <= 0 || pw <= 0 then
          invalid_arg "Tensor_f32.conv2d_batch: pool window too large";
        Some { size; stride; w = ow; oh = ph; ow = pw }
    | _ -> None
  in
  let result =
    match window with
    | Some win -> create [| n; out_c; win.oh; win.ow |]
    | None -> out
  in
  (match norm with
  | Some (gamma, beta, eps) ->
      Telemetry.Counter.incr stats.Tensor_sig.Stats.fusion_hits;
      norm_planes ~relu ?window ~c:out_c ~plane:cols gamma.data beta.data ~eps
        ~nplanes:(n * out_c) od result.data
  | None ->
      if relu then begin
        Telemetry.Counter.incr stats.Tensor_sig.Stats.fusion_hits;
        relu_inplace od (n * ostride)
      end);
  Telemetry.Histogram.observe stats.Tensor_sig.Stats.seconds
    (Unix.gettimeofday () -. t0);
  match max_pool with
  | Some (size, stride) when Option.is_none window ->
      max_pool2d_batch ~stride ~size result
  | _ -> result

(* {1 Dense: float64 weights, one slot per domain}

   Each domain keeps a float64 copy of the last weight matrix it ran, in
   one slot keyed on the weight's physical identity (the pattern of the
   input-conv memo: a plan converts its weights once, so a new matrix is
   a new Bigarray).  Each image's input row is widened once, and four
   output rows accumulate per pass over it, each in its own ascending-p
   order from +0.0 with the bias added last — the same sum as a plain
   loop, so the same bits.  Four independent sums hide the add latency
   that one running sum waits on (1.4x the one-row loop at 256x10,
   EXPERIMENTS.md "Fused pool and float64 epilogue"). *)

type dense_slot = { mutable d_weight : ba; mutable d_w64 : float array }

let dense_slot : dense_slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { d_weight = alloc 0; d_w64 = [||] })

(* A new matrix of the slot's size (the harness compiles a plan per
   attacked image) is widened into the same array. *)
let dense_weights (wd : ba) =
  let slot = Domain.DLS.get dense_slot in
  if slot.d_weight != wd then begin
    let len = Bigarray.Array1.dim wd in
    if Array.length slot.d_w64 <> len then slot.d_w64 <- Array.make len 0.;
    for i = 0 to len - 1 do
      Array.unsafe_set slot.d_w64 i (Bigarray.Array1.unsafe_get wd i)
    done;
    slot.d_weight <- wd
  end;
  slot.d_w64

let dense_batch ~weight ~bias x =
  if Array.length x.shape <> 2 || Array.length weight.shape <> 2 then
    invalid_arg "Tensor_f32.dense_batch: expected rank-2 input and weight";
  let n = x.shape.(0) and k = x.shape.(1) in
  let out_dim = weight.shape.(0) in
  if weight.shape.(1) <> k || bias.shape.(0) <> out_dim then
    invalid_arg "Tensor_f32.dense_batch: dimension mismatch";
  let t0 = Unix.gettimeofday () in
  let out = create [| n; out_dim |] in
  let xd = x.data and bd = bias.data and od = out.data in
  let w64 = dense_weights weight.data in
  let x64 = f64_scratch vec_scratch k in
  let j4 = out_dim / 4 * 4 in
  for img = 0 to n - 1 do
    let xoff = img * k and ooff = img * out_dim in
    for p = 0 to k - 1 do
      Array.unsafe_set x64 p (Bigarray.Array1.unsafe_get xd (xoff + p))
    done;
    let j = ref 0 in
    while !j < j4 do
      let j0 = !j in
      let w0 = j0 * k in
      let w1 = w0 + k in
      let w2 = w1 + k in
      let w3 = w2 + k in
      let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
      for p = 0 to k - 1 do
        let xv = Array.unsafe_get x64 p in
        a0 := !a0 +. (Array.unsafe_get w64 (w0 + p) *. xv);
        a1 := !a1 +. (Array.unsafe_get w64 (w1 + p) *. xv);
        a2 := !a2 +. (Array.unsafe_get w64 (w2 + p) *. xv);
        a3 := !a3 +. (Array.unsafe_get w64 (w3 + p) *. xv)
      done;
      let o = ooff + j0 in
      Bigarray.Array1.unsafe_set od o (!a0 +. Bigarray.Array1.unsafe_get bd j0);
      Bigarray.Array1.unsafe_set od (o + 1)
        (!a1 +. Bigarray.Array1.unsafe_get bd (j0 + 1));
      Bigarray.Array1.unsafe_set od (o + 2)
        (!a2 +. Bigarray.Array1.unsafe_get bd (j0 + 2));
      Bigarray.Array1.unsafe_set od (o + 3)
        (!a3 +. Bigarray.Array1.unsafe_get bd (j0 + 3));
      j := j0 + 4
    done;
    for j = j4 to out_dim - 1 do
      let woff = j * k in
      let acc = ref 0. in
      for p = 0 to k - 1 do
        acc :=
          !acc +. (Array.unsafe_get w64 (woff + p) *. Array.unsafe_get x64 p)
      done;
      Bigarray.Array1.unsafe_set od (ooff + j)
        (!acc +. Bigarray.Array1.unsafe_get bd j)
    done
  done;
  Telemetry.Counter.add stats.Tensor_sig.Stats.flops (2 * n * out_dim * k);
  Telemetry.Histogram.observe stats.Tensor_sig.Stats.seconds
    (Unix.gettimeofday () -. t0);
  out

let concat_channels_batch ts =
  match ts with
  | [] -> invalid_arg "Tensor_f32.concat_channels_batch: empty list"
  | first :: _ ->
      List.iter
        (fun t ->
          if Array.length t.shape <> 4 then
            invalid_arg "Tensor_f32.concat_channels_batch: expected NCHW")
        ts;
      let n = first.shape.(0)
      and h = first.shape.(2)
      and w = first.shape.(3) in
      List.iter
        (fun t ->
          if t.shape.(0) <> n || t.shape.(2) <> h || t.shape.(3) <> w then
            invalid_arg "Tensor_f32.concat_channels_batch: shape mismatch")
        ts;
      let total_c = List.fold_left (fun acc t -> acc + t.shape.(1)) 0 ts in
      let plane = h * w in
      let out = create [| n; total_c; h; w |] in
      for img = 0 to n - 1 do
        let base = img * total_c * plane in
        let off = ref 0 in
        List.iter
          (fun t ->
            let len = t.shape.(1) * plane in
            Bigarray.Array1.blit
              (Bigarray.Array1.sub t.data (img * len) len)
              (Bigarray.Array1.sub out.data (base + !off) len);
            off := !off + len)
          ts
      done;
      out

let softmax_rows l =
  if Array.length l.shape <> 2 then
    invalid_arg "Tensor_f32.softmax_rows: expected an (n, classes) matrix";
  let n = l.shape.(0) and classes = l.shape.(1) in
  let out = create [| n; classes |] in
  let ld = l.data and od = out.data in
  for img = 0 to n - 1 do
    let off = img * classes in
    let m = ref (Bigarray.Array1.unsafe_get ld off) in
    for j = 1 to classes - 1 do
      let v = Bigarray.Array1.unsafe_get ld (off + j) in
      if v > !m then m := v
    done;
    let z = ref 0. in
    for j = 0 to classes - 1 do
      let e = exp (Bigarray.Array1.unsafe_get ld (off + j) -. !m) in
      Bigarray.Array1.unsafe_set od (off + j) e;
      z := !z +. e
    done;
    let inv = 1. /. !z in
    for j = 0 to classes - 1 do
      Bigarray.Array1.unsafe_set od (off + j)
        (inv *. Bigarray.Array1.unsafe_get od (off + j))
    done
  done;
  out
