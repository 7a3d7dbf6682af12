/* The one GEMM kernel behind both tensor backends:

     o[ooff + i*n + j] += sum over p of a[i*k + p] * b[p*n + j]

   for rows i < m and columns j < n, B a row-major [k; n] float64
   panel.  Each output element starts from the value the caller seeded
   it with (zeros, or a broadcast bias) and accumulates in float64 in
   ascending p.  Two entry points share the body:

   - [tensor_gemm_f64]: float64 weights and output (OCaml float arrays),
     the boxed backend's conv and [Tensor.matmul];
   - [tensor_gemm_f32]: float32 weights and output (Bigarrays), the f32
     backend's conv and matmul.  Weights widen to float64 as they are
     read (exact), the seed widens likewise, and the sum rounds to
     float32 once, at the store.

   Register tiling: 4 rows by 8 columns, the columns held in GCC/Clang
   generic two-lane float64 vectors.  Vectorising across columns never
   reorders one element's sum: lane j of an accumulator only ever adds
   products for column j, one p at a time.  The file is compiled with
   -ffp-contract=off and no fast-math flags (lib/tensor/dune), so every
   multiply and every add rounds exactly as OCaml's [+.] and [*.] do;
   a fused multiply-add would round once where OCaml rounds twice.  So
   the results are bit-identical to a plain ascending-p loop whatever
   the tiling or column blocking, and do not depend on how callers
   batch their columns.

   Callers validate shapes and bounds; the kernel allocates nothing and
   never calls into the runtime, hence the [@@noalloc] externals. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

typedef double v2d __attribute__((vector_size(16)));

static inline v2d load2(const double *p)
{
  v2d v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline void store2(double *p, v2d v)
{
  memcpy(p, &v, sizeof v);
}

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* The operand views of one call.  Exactly one of [a64]/[a32] and one of
   [o64]/[o32] is set, by the entry point; [f32] says which.  Every
   helper below is inlined with [f32] a constant, so each entry point
   compiles to its own branch-free kernel. */
struct gemm {
  intnat k, n;
  const double *a64;
  const float *a32;
  const double *b;
  double *o64;
  float *o32;
};

ALWAYS_INLINE double a_at(const struct gemm *g, int f32, intnat i)
{
  return f32 ? (double)g->a32[i] : g->a64[i];
}

ALWAYS_INLINE v2d o_load2(const struct gemm *g, int f32, intnat i)
{
  if (f32) {
    v2d v = { (double)g->o32[i], (double)g->o32[i + 1] };
    return v;
  }
  return load2(g->o64 + i);
}

ALWAYS_INLINE void o_store2(const struct gemm *g, int f32, intnat i, v2d v)
{
  if (f32) {
    g->o32[i] = (float)v[0];
    g->o32[i + 1] = (float)v[1];
  } else
    store2(g->o64 + i, v);
}

ALWAYS_INLINE double o_load(const struct gemm *g, int f32, intnat i)
{
  return f32 ? (double)g->o32[i] : g->o64[i];
}

ALWAYS_INLINE void o_store(const struct gemm *g, int f32, intnat i, double v)
{
  if (f32)
    g->o32[i] = (float)v;
  else
    g->o64[i] = v;
}

/* One [rows] x (2 * [vecs]) tile at row [i0] (weights at [i0 * k],
   output at [ob + i0 * n]) and column [j]; [rows] and [vecs] are
   constants at every call, so the loops unroll and the accumulators
   stay in registers. */
ALWAYS_INLINE void tile(const struct gemm *g, int f32, int rows, int vecs,
                        intnat i0, intnat ob, intnat j)
{
  const intnat k = g->k, n = g->n;
  v2d c[4][4];
  for (int r = 0; r < rows; r++)
    for (int v = 0; v < vecs; v++)
      c[r][v] = o_load2(g, f32, ob + (i0 + r) * n + j + 2 * v);
  for (intnat p = 0; p < k; p++) {
    const double *bp = g->b + p * n + j;
    v2d bv[4];
    for (int v = 0; v < vecs; v++)
      bv[v] = load2(bp + 2 * v);
    for (int r = 0; r < rows; r++) {
      double x = a_at(g, f32, (i0 + r) * k + p);
      v2d av = { x, x };
      for (int v = 0; v < vecs; v++)
        c[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < rows; r++)
    for (int v = 0; v < vecs; v++)
      o_store2(g, f32, ob + (i0 + r) * n + j + 2 * v, c[r][v]);
}

/* One column [j] of [rows] rows, for an odd column count's last one. */
ALWAYS_INLINE void column(const struct gemm *g, int f32, int rows, intnat i0,
                          intnat ob, intnat j)
{
  const intnat k = g->k, n = g->n;
  double c[4];
  for (int r = 0; r < rows; r++)
    c[r] = o_load(g, f32, ob + (i0 + r) * n + j);
  for (intnat p = 0; p < k; p++) {
    double bv = g->b[p * n + j];
    for (int r = 0; r < rows; r++)
      c[r] += a_at(g, f32, (i0 + r) * k + p) * bv;
  }
  for (int r = 0; r < rows; r++)
    o_store(g, f32, ob + (i0 + r) * n + j, c[r]);
}

/* Columns [jlo, jhi) of [rows] rows from row [i0]. */
ALWAYS_INLINE void row_block(const struct gemm *g, int f32, int rows,
                             intnat i0, intnat ob, intnat jlo, intnat jhi)
{
  intnat j = jlo;
  for (; j + 8 <= jhi; j += 8)
    tile(g, f32, rows, 4, i0, ob, j);
  for (; j + 2 <= jhi; j += 2)
    tile(g, f32, rows, 1, i0, ob, j);
  if (j < jhi)
    column(g, f32, rows, i0, ob, j);
}

ALWAYS_INLINE void gemm(const struct gemm *g, int f32, intnat ooff, intnat m)
{
  const intnat k = g->k, n = g->n;
  /* Column blocking: a [k; jb] slice of B (~256 KB) stays in cache while
     every row block passes over it.  A multiple of 8, so only the last
     block can leave a tile remainder. */
  intnat jb = (32768 / (k > 0 ? k : 1)) & ~(intnat)7;
  if (jb < 16)
    jb = 16;
  for (intnat jlo = 0; jlo < n; jlo += jb) {
    intnat jhi = jlo + jb < n ? jlo + jb : n;
    intnat i = 0;
    for (; i + 4 <= m; i += 4)
      row_block(g, f32, 4, i, ooff, jlo, jhi);
    for (; i < m; i++)
      row_block(g, f32, 1, i, ooff, jlo, jhi);
  }
}

value tensor_gemm_f64(intnat ooff, intnat m, intnat k, intnat n, value a,
                      value b, value o)
{
  struct gemm g = { k, n, (const double *)a, NULL, (const double *)b,
                    (double *)o, NULL };
  gemm(&g, 0, ooff, m);
  return Val_unit;
}

value tensor_gemm_f64_byte(value *argv, int argn)
{
  (void)argn;
  return tensor_gemm_f64(Long_val(argv[0]), Long_val(argv[1]),
                         Long_val(argv[2]), Long_val(argv[3]), argv[4],
                         argv[5], argv[6]);
}

value tensor_gemm_f32(intnat ooff, intnat m, intnat k, intnat n, value a,
                      value b, value o)
{
  struct gemm g = { k, n, NULL, (const float *)Caml_ba_data_val(a),
                    (const double *)b, NULL, (float *)Caml_ba_data_val(o) };
  gemm(&g, 1, ooff, m);
  return Val_unit;
}

value tensor_gemm_f32_byte(value *argv, int argn)
{
  (void)argn;
  return tensor_gemm_f32(Long_val(argv[0]), Long_val(argv[1]),
                         Long_val(argv[2]), Long_val(argv[3]), argv[4],
                         argv[5], argv[6]);
}
