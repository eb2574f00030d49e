// get_hermitian — the compute-bound half of an ALS update (paper §III).
//
// For every row u with non-zeros {v : r_uv ≠ 0} it forms
//     A_u = Σ_v θ_v θ_vᵀ + λ n_u I           (f×f, symmetric)
//     b_u = Σ_v r_uv θ_v                      (the get_bias term)
//
// The functional kernel here mirrors the CUDA kernel's structure exactly
// (Fig. 2): θ columns are staged into a BIN×f "shared memory" buffer in
// batches; A_u is accumulated tile-by-tile in T×T "register" blocks; only
// lower-triangular tile pairs (x ≤ y) are computed and the result is
// mirrored on flush. Mirroring the structure keeps the simulated-GPU
// resource accounting (registers = T², smem = BIN·f floats) honest, and the
// unit tests verify it is numerically identical to the naive reference.
//
// On the host the register block is a row panel instead: the SIMD path
// holds two rows of the lower triangle (up to 32 columns each) in vector
// registers across the whole staged batch, which a T×T tile is too small
// to do. Every element still gets the same acc + y_i·x_j sequence, so the
// output is bitwise that of the tile loop, which the scalar path keeps as
// the differential reference. The gpusim resource model and
// HermitianParams::tile are unchanged.
#pragma once

#include <span>
#include <vector>

#include "linalg/dense.hpp"
#include "simd/vec.hpp"
#include "sparse/csr.hpp"

namespace cumf {

struct HermitianParams {
  int tile = 10;  ///< register tile size T (paper: 10 for f=100)
  int bin = 32;   ///< θ columns staged per batch (paper: 32)
  /// Stage θ in FP16 (the paper's §VII Tensor-Core future work): inputs are
  /// rounded to half precision on the way into shared memory, accumulation
  /// stays FP32 — exactly the Tensor-Core mixed-precision contract. Halves
  /// the staging traffic at a bounded (≤2⁻¹¹ relative) input perturbation.
  bool fp16_staging = false;
};

/// Reusable scratch for the staged batch. Call prepare() once per worker so
/// the per-row hot loop never touches allocator paths; unprepared workspaces
/// are sized lazily on first use.
struct HermitianWorkspace {
  std::vector<real_t> staged;  ///< BIN × f "shared memory" buffer

  void prepare(std::size_t f, const HermitianParams& params);
};

/// Tiled kernel: writes the full symmetric A_u (f×f row-major) into `a_out`
/// and b_u into `b_out`. λ·n_u is added to the diagonal (ALS-WR weighting,
/// eq. (2)). Rows with no non-zeros produce A_u = λ·0·I = 0 plus b=0; the
/// caller decides how to handle them (AlsEngine keeps the old factor).
/// `path` selects the SIMD (row panels) or scalar (T×T tiles) variant of
/// the accumulation, the FP16 staging transform, and the b_u update; the
/// two variants are bitwise identical (all three stages are elementwise)
/// and differentially tested.
void get_hermitian_row(const CsrMatrix& r, const Matrix& theta, index_t u,
                       real_t lambda, const HermitianParams& params,
                       HermitianWorkspace& ws, std::span<real_t> a_out,
                       std::span<real_t> b_out,
                       simd::KernelPath path = simd::kDefaultPath);

/// Naive reference (plain accumulation loops) for differential testing.
void get_hermitian_row_reference(const CsrMatrix& r, const Matrix& theta,
                                 index_t u, real_t lambda,
                                 std::span<real_t> a_out,
                                 std::span<real_t> b_out);

/// Static value-range envelope of the get_hermitian outputs over every row
/// of `r`, assuming factor magnitudes up to `theta_absmax`:
///     |A_ij| ≤ n_u·θmax²  (i≠j),   A_ii ≤ n_u·θmax² + λ·n_u,
///     A_ii ≥ λ·n_u,                |b_i| ≤ n_u·|r|max·θmax.
/// The analysis layer's FP16 range pass (analysis/cuverify/fp16range.hpp)
/// propagates these through the CG dataflow to predict whether the CG-FP16
/// solver's A pack can overflow for a dataset — before any epoch runs.
struct HermitianValueBounds {
  std::uint64_t max_nnz = 0;   ///< densest row's non-zero count
  std::uint64_t min_nnz = 0;   ///< sparsest *non-empty* row (0: all empty)
  double rating_absmax = 0.0;  ///< max |r_uv| over the matrix
  double a_offdiag_abs = 0.0;  ///< ≥ max |A_ij|, i ≠ j
  double a_diag_max = 0.0;     ///< ≥ max A_ii (including the λ·n_u ridge)
  double a_diag_min = 0.0;     ///< ≤ min A_ii of a non-empty row (λ floor)
  double b_abs = 0.0;          ///< ≥ max |b_i|
};

HermitianValueBounds hermitian_value_bounds(const CsrMatrix& r,
                                            double theta_absmax,
                                            double lambda);

}  // namespace cumf
