// Cache-blocked, register-tiled GEMM kernels.
//
// Scheme (see DESIGN.md "Compute kernels"):
//   * The output C is tiled over i (rows, kMR at a time) and j (columns,
//     panels of kNC); each panel is walked by an MR×NR register micro-kernel
//     that keeps a block of C in accumulator registers for the entire k
//     sweep — one store per output element instead of one load+store per
//     (element, k) step, and every B-row load is shared by MR output rows.
//   * Each output element accumulates its k products in ascending order
//     starting from 0.0f, exactly the order of the naive reference kernel,
//     so blocked results are bit-identical to ops::reference — the learner
//     stays deterministic across this rewrite. The wide panels never tile
//     k. The narrow path below cuts k into kKC chunks, and every chunk after
//     the first reloads the partial sum it stored in C and keeps adding in
//     k order: a float store and reload is exact, so the chain is unchanged.
//   * Kernels run on the calling thread; parallelism comes from the
//     execution driver running whole invocation bodies concurrently.
//   * Narrow outputs (n == 8, the first conv layer's channels, and n == 4,
//     the arcade policy head) take their own micro-kernel written with
//     vector extensions, because the templated wide micro-kernel at NR = 8
//     vectorizes into gathers and spills. It reads A through a (row, k)
//     stride pair, so matmul_tn runs it straight on A's storage with no
//     transpose pack.
//   * Otherwise matmul_tn packs the A panel into a transposed scratch
//     buffer first (pure data movement), then reuses the nn micro-kernel;
//     matmul_nt does the same with B, since a dot-product micro-kernel
//     cannot vectorize its k chain without reassociating float adds.
#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"

namespace stellaris::ops {
namespace {

// Register tile and cache panels. 4×48 accumulators measured fastest for
// the -march=native AVX-512 build (three 16-lane accumulator columns per
// row keep both FMA ports busy) while staying ahead of the reference ikj
// kernel in the portable build. Column edges are handled by compile-time
// sub-tiles (32, then 16, then a scalar tail) because a runtime-bound tile
// defeats the vectorizer.
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 48;
constexpr std::size_t kNC = 240;  // multiple of kNR: edge tiles only at the true edge

obs::Counter& gemm_calls() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.gemm_calls");
  return c;
}

obs::Counter& gemm_flop_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.gemm_flops");
  return c;
}

// -- micro-kernels -----------------------------------------------------------
// a points at A[i][0] (row stride lda), b at B[0][j] (row stride ldb), c at
// C[i][j] (row stride ldc). Accumulation runs the full k range in registers
// and stores once.

template <std::size_t MR, std::size_t NR>
inline void micro_nn(std::size_t k, const float* a, std::size_t lda,
                     const float* b, std::size_t ldb, float* c,
                     std::size_t ldc) {
  float acc[MR][NR] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    for (std::size_t r = 0; r < MR; ++r) {
      const float ar = a[r * lda + kk];
      for (std::size_t cc = 0; cc < NR; ++cc) acc[r][cc] += ar * brow[cc];
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t cc = 0; cc < NR; ++cc) c[r * ldc + cc] = acc[r][cc];
}

// Bottom-edge rows: dispatch the runtime row count to a compile-time MR so
// the column loop always vectorizes over a known NR.
template <std::size_t NR>
inline void micro_nn_rows(std::size_t mr, std::size_t k, const float* a,
                          std::size_t lda, const float* b, std::size_t ldb,
                          float* c, std::size_t ldc) {
  switch (mr) {
    case 4: micro_nn<4, NR>(k, a, lda, b, ldb, c, ldc); break;
    case 3: micro_nn<3, NR>(k, a, lda, b, ldb, c, ldc); break;
    case 2: micro_nn<2, NR>(k, a, lda, b, ldb, c, ldc); break;
    case 1: micro_nn<1, NR>(k, a, lda, b, ldb, c, ldc); break;
    default: break;
  }
}

// Right-edge columns past the last 16-wide sub-tile: one register
// accumulator per element, k ascending — same order as everything else.
inline void micro_nn_scalar(std::size_t mr, std::size_t nr, std::size_t k,
                            const float* a, std::size_t lda, const float* b,
                            std::size_t ldb, float* c, std::size_t ldc) {
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t cc = 0; cc < nr; ++cc) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc += a[r * lda + kk] * b[kk * ldb + cc];
      c[r * ldc + cc] = acc;
    }
  }
}

// The m rows of C = A·B with A given row-major (stride lda). Shared by nn
// (A as passed), tn (packed Aᵀ) and nt (packed Bᵀ).
void gemm_nn_panel(std::size_t m, std::size_t n, std::size_t k,
                   const float* pa, std::size_t lda, const float* pb,
                   float* pc) {
  for (std::size_t j0 = 0; j0 < n; j0 += kNC) {
    const std::size_t j1 = std::min(n, j0 + kNC);
    for (std::size_t i = 0; i < m; i += kMR) {
      const std::size_t mr = std::min(kMR, m - i);
      const float* arow = pa + i * lda;
      float* crow = pc + i * n;
      std::size_t j = j0;
      for (; j + kNR <= j1; j += kNR)
        micro_nn_rows<kNR>(mr, k, arow, lda, pb + j, n, crow + j, n);
      if (j + 32 <= j1) {
        micro_nn_rows<32>(mr, k, arow, lda, pb + j, n, crow + j, n);
        j += 32;
      }
      if (j + 16 <= j1) {
        // One row at a time: a multi-row 16-wide accumulator tile spills
        // the portable register file (measured ~4x slower than 1×16).
        // Row grouping is irrelevant to exactness — each output element
        // still runs its own ascending k sweep.
        for (std::size_t r = 0; r < mr; ++r)
          micro_nn<1, 16>(k, arow + r * lda, lda, pb + j, n,
                          crow + r * n + j, n);
        j += 16;
      }
      if (j < j1)
        micro_nn_scalar(mr, j1 - j, k, arow, lda, pb + j, n, crow + j, n);
    }
  }
}

// -- narrow-output path (n == 4 or n == 8) ------------------------------------
// GCC's SLP pass turns micro_nn<4, 8> into gathers, shuffles and spills, so
// this path spells its vectors out: MR rows × NV four-lane accumulators, one
// broadcast of a per k step, lane-wise * and + only. Each lane is then the
// same k-ascending chain as the scalar reference, element for element.
// Loads and stores go through memcpy: no alignment is assumed.

using V4 = float __attribute__((vector_size(16)));

inline V4 load4(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, V4 v) { std::memcpy(p, &v, sizeof v); }

// k chunk of the narrow path: keeps a chunk of A and B in L2 while every
// row tile of the panel walks it.
constexpr std::size_t kKC = 256;

// C rows [0, MR) × columns [0, 4·NV) (row stride 4·NV) over kc k steps. a
// points at A(i, k0), whose row step is ars and k step is aks; b at B(k0, 0)
// (row stride 4·NV). With `resume` the accumulators start from the partial
// sums already in C instead of 0.0f.
template <std::size_t MR, std::size_t NV>
inline void micro_narrow(std::size_t kc, const float* a, std::size_t ars,
                         std::size_t aks, const float* b, float* c,
                         bool resume) {
  constexpr std::size_t n = 4 * NV;
  V4 acc[MR][NV];
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t v = 0; v < NV; ++v)
      acc[r][v] = resume ? load4(c + r * n + 4 * v) : V4{};
  for (std::size_t kk = 0; kk < kc; ++kk) {
    V4 bv[NV];
    for (std::size_t v = 0; v < NV; ++v) bv[v] = load4(b + kk * n + 4 * v);
    for (std::size_t r = 0; r < MR; ++r) {
      const float s = a[r * ars + kk * aks];
      const V4 av = {s, s, s, s};
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t v = 0; v < NV; ++v) store4(c + r * n + 4 * v, acc[r][v]);
}

// The m rows of C = op(A)·B for n = 4·NV, op(A)(i, kk) read at
// pa[i·ars + kk·aks]: nn passes (lda, 1), tn passes (1, m). All row tiles
// walk one k chunk before any moves to the next.
template <std::size_t NV>
void gemm_narrow_panel(std::size_t m, std::size_t k, const float* pa,
                       std::size_t ars, std::size_t aks, const float* pb,
                       float* pc) {
  constexpr std::size_t n = 4 * NV;
  for (std::size_t k0 = 0; k0 == 0 || k0 < k; k0 += kKC) {
    const std::size_t kc = std::min(kKC, k - k0);
    const bool resume = k0 > 0;
    const float* pbk = pb + k0 * n;
    std::size_t i = 0;
    for (; i + kMR <= m; i += kMR)
      micro_narrow<kMR, NV>(kc, pa + i * ars + k0 * aks, ars, aks, pbk,
                            pc + i * n, resume);
    if (i == m) continue;
    const float* a = pa + i * ars + k0 * aks;
    float* c = pc + i * n;
    switch (m - i) {
      case 3: micro_narrow<3, NV>(kc, a, ars, aks, pbk, c, resume); break;
      case 2: micro_narrow<2, NV>(kc, a, ars, aks, pbk, c, resume); break;
      case 1: micro_narrow<1, NV>(kc, a, ars, aks, pbk, c, resume); break;
      default: break;
    }
  }
}

// Output widths that take the narrow path.
bool narrow(std::size_t n) { return n == 4 || n == 8; }

void gemm_narrow(std::size_t m, std::size_t n, std::size_t k,
                 const float* pa, std::size_t ars, std::size_t aks,
                 const float* pb, float* pc) {
  if (n == 8)
    gemm_narrow_panel<2>(m, k, pa, ars, aks, pb, pc);
  else
    gemm_narrow_panel<1>(m, k, pa, ars, aks, pb, pc);
}

void check_not_aliased(const Tensor& c, const Tensor& a, const Tensor& b,
                       const char* what) {
  STELLARIS_CHECK_MSG(&c != &a && &c != &b,
                      what << ": output must not alias an input");
}

}  // namespace

// -- matmul (nn) -------------------------------------------------------------

void matmul_into(Tensor& c, const Tensor& a, const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul needs 2-D operands");
  check_not_aliased(c, a, b, "matmul_into");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  STELLARIS_CHECK_MSG(b.dim(0) == k, "matmul inner-dim mismatch: "
                                         << shape_str(a.shape()) << " x "
                                         << shape_str(b.shape()));
  c.ensure_shape({m, n});
  gemm_calls().add(1);
  gemm_flop_counter().add(2ull * m * n * k);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  if (narrow(n))
    gemm_narrow(m, n, k, pa, k, 1, pb, pc);
  else
    gemm_nn_panel(m, n, k, pa, k, pb, pc);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_into(c, a, b);
  return c;
}

// -- matmul_tn ---------------------------------------------------------------

void matmul_tn_into(Tensor& c, const Tensor& a, const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul_tn needs 2-D operands");
  check_not_aliased(c, a, b, "matmul_tn_into");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  STELLARIS_CHECK_MSG(b.dim(0) == k, "matmul_tn inner-dim mismatch");
  c.ensure_shape({m, n});
  gemm_calls().add(1);
  gemm_flop_counter().add(2ull * m * n * k);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  if (narrow(n)) {
    // Aᵀ(i, kk) is A(kk, i): read A in place, row step 1, k step m.
    gemm_narrow(m, n, k, pa, 1, m, pb, pc);
    return;
  }
  if (m == 0) return;
  // Pack Aᵀ into a contiguous (m, k) panel — pure data movement, so the
  // k-accumulation order below is untouched — then run the nn panel on it.
  // Per-thread scratch: concurrent driver bodies pack independently.
  auto pack = ScratchPool::local().take({m, k});
  float* pp = pack->data().data();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    for (std::size_t i = 0; i < m; ++i) pp[i * k + kk] = arow[i];
  }
  gemm_nn_panel(m, n, k, pp, k, pb, pc);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_tn_into(c, a, b);
  return c;
}

// -- matmul_nt ---------------------------------------------------------------

void matmul_nt_into(Tensor& c, const Tensor& a, const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul_nt needs 2-D operands");
  check_not_aliased(c, a, b, "matmul_nt_into");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  STELLARIS_CHECK_MSG(b.dim(1) == k, "matmul_nt inner-dim mismatch");
  c.ensure_shape({m, n});
  gemm_calls().add(1);
  gemm_flop_counter().add(2ull * m * n * k);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  // Pack Bᵀ (n×k → k×n) once, then run the nn panels on it. A dot-product
  // micro-kernel can't be vectorized without reassociating the k chain
  // (which would break bit-exactness); the transpose is pure data movement,
  // so the nn kernel's per-element k order — ascending from 0 — is exactly
  // the reference nt order.
  auto packed = ScratchPool::local().take({k, n});
  float* pp = packed->data().data();
  for (std::size_t j = 0; j < n; ++j) {
    const float* brow = pb + j * k;
    for (std::size_t kk = 0; kk < k; ++kk) pp[kk * n + j] = brow[kk];
  }
  gemm_nn_panel(m, n, k, pa, k, pp, pc);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_nt_into(c, a, b);
  return c;
}

// -- reference kernels --------------------------------------------------------
// The seed's loops, minus the `if (aik == 0.0f) continue;` zero-skip: that
// branch silently dropped 0·NaN / 0·Inf terms (which must produce NaN) and
// cost a branch per element on dense data. Kept naive on purpose — this is
// the oracle the blocked kernels are bit-compared against.

namespace reference {

Tensor matmul(const Tensor& a, const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul needs 2-D operands");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  STELLARIS_CHECK_MSG(b.dim(0) == k, "matmul inner-dim mismatch");
  Tensor c({m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  // ikj loop order: unit-stride inner loop over both B and C rows.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul_tn needs 2-D operands");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  STELLARIS_CHECK_MSG(b.dim(0) == k, "matmul_tn inner-dim mismatch");
  Tensor c({m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul_nt needs 2-D operands");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  STELLARIS_CHECK_MSG(b.dim(1) == k, "matmul_nt inner-dim mismatch");
  Tensor c({m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float s = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      pc[i * n + j] = s;
    }
  }
  return c;
}

}  // namespace reference
}  // namespace stellaris::ops
