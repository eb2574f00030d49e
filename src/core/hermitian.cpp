#include "core/hermitian.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "half/half.hpp"
#include "half/half_simd.hpp"

namespace cumf {

namespace {

/// Row-panel accumulation, SIMD path: rows [i0, i0+R) × columns
/// [j0, j0+8V) of A stay in R·V vf8 registers while the whole staged batch
/// streams through them, and are stored once. Each element still receives
/// acc + y_i·x_j once per staged column, in column order — the same
/// per-element operation sequence as the tile loop, so the result is
/// bitwise identical to accumulate_tile_scalar.
template <std::size_t R, std::size_t V>
void accumulate_panel(real_t* a, std::size_t f, std::size_t i0,
                      std::size_t j0, const real_t* staged,
                      std::size_t batch_len) {
  simd::vf8 acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] = simd::vf8::load(a + (i0 + r) * f + j0 + 8 * v);
    }
  }
  for (std::size_t s = 0; s < batch_len; ++s) {
    const real_t* col = staged + s * f;
    simd::vf8 x[V];
    for (std::size_t v = 0; v < V; ++v) {
      x[v] = simd::vf8::load(col + j0 + 8 * v);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const simd::vf8 y = simd::vf8::broadcast(col[i0 + r]);
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = acc[r][v] + y * x[v];
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v].store(a + (i0 + r) * f + j0 + 8 * v);
    }
  }
}

template <std::size_t R>
void accumulate_panel_n(std::size_t vectors, real_t* a, std::size_t f,
                        std::size_t i0, std::size_t j0, const real_t* staged,
                        std::size_t batch_len) {
  switch (vectors) {
    case 1:
      return accumulate_panel<R, 1>(a, f, i0, j0, staged, batch_len);
    case 2:
      return accumulate_panel<R, 2>(a, f, i0, j0, staged, batch_len);
    case 3:
      return accumulate_panel<R, 3>(a, f, i0, j0, staged, batch_len);
    default:
      return accumulate_panel<R, 4>(a, f, i0, j0, staged, batch_len);
  }
}

/// Lower triangle of A += Σ_s θ_s θ_sᵀ over the staged batch, by row
/// panels: two rows at a time (eight independent FMA chains, enough to
/// cover the FMA latency), each row cut into chunks of up to four vf8.
/// A pair's panel spans [0, roundup8(i0+2)) ∩ [0, f): every lower element
/// plus at most seven upper ones, which the caller's mirror overwrites.
/// Columns past the last full vector (only when f % 8 ≠ 0) take the same
/// scalar acc + y·x per element.
void accumulate_rows_simd(real_t* a, std::size_t f, const real_t* staged,
                          std::size_t batch_len) {
  constexpr std::size_t kRows = 2;
  constexpr std::size_t kMaxVectors = 4;
  for (std::size_t i0 = 0; i0 < f; i0 += kRows) {
    const std::size_t rows = std::min(kRows, f - i0);
    const std::size_t len = std::min(f, (i0 + rows + 7) / 8 * 8);
    const std::size_t full = len / 8;
    for (std::size_t v0 = 0; v0 < full; v0 += kMaxVectors) {
      const std::size_t vectors = std::min(kMaxVectors, full - v0);
      if (rows == kRows) {
        accumulate_panel_n<kRows>(vectors, a, f, i0, 8 * v0, staged,
                                  batch_len);
      } else {
        for (std::size_t r = i0; r < i0 + rows; ++r) {
          accumulate_panel_n<1>(vectors, a, f, r, 8 * v0, staged, batch_len);
        }
      }
    }
    for (std::size_t r = i0; r < i0 + rows; ++r) {
      for (std::size_t j = 8 * full; j < len; ++j) {
        real_t acc = a[r * f + j];
        for (std::size_t s = 0; s < batch_len; ++s) {
          acc += staged[s * f + r] * staged[s * f + j];
        }
        a[r * f + j] = acc;
      }
    }
  }
}

void accumulate_tile_scalar(real_t* block, std::size_t f, std::size_t tile,
                            const real_t* frag_x, const real_t* frag_y) {
  for (std::size_t i = 0; i < tile; ++i) {
    const real_t yi = frag_y[i];
    for (std::size_t j = 0; j < tile; ++j) {
      block[i * f + j] += yi * frag_x[j];
    }
  }
}

}  // namespace

void HermitianWorkspace::prepare(std::size_t f, const HermitianParams& params) {
  CUMF_EXPECTS(params.bin > 0, "BIN must be positive");
  staged.resize(static_cast<std::size_t>(params.bin) * f);
}

void get_hermitian_row(const CsrMatrix& r, const Matrix& theta, index_t u,
                       real_t lambda, const HermitianParams& params,
                       HermitianWorkspace& ws, std::span<real_t> a_out,
                       std::span<real_t> b_out, simd::KernelPath path) {
  const std::size_t f = theta.cols();
  CUMF_EXPECTS(params.tile > 0 && f % static_cast<std::size_t>(params.tile) == 0,
               "f must be a multiple of the tile size");
  CUMF_EXPECTS(params.bin > 0, "BIN must be positive");
  CUMF_EXPECTS(a_out.size() == f * f, "A_u must be f*f");
  CUMF_EXPECTS(b_out.size() == f, "b_u must be length f");

  const auto tile = static_cast<std::size_t>(params.tile);
  const auto bin = static_cast<std::size_t>(params.bin);
  const std::size_t nt = f / tile;  // tiles per dimension
  const bool use_simd = path == simd::KernelPath::simd;

  std::fill(a_out.begin(), a_out.end(), real_t{0});
  std::fill(b_out.begin(), b_out.end(), real_t{0});
  // Steady state never touches the allocator: AlsEngine prepares each
  // worker's workspace once; ad-hoc callers pay a single resize here.
  if (ws.staged.size() < bin * f) {
    ws.staged.resize(bin * f);
  }

  const auto cols = r.row_cols(u);
  const auto vals = r.row_vals(u);

  for (std::size_t batch = 0; batch < cols.size(); batch += bin) {
    const std::size_t batch_len = std::min(bin, cols.size() - batch);

    // Stage the batch's θ columns from "global" into "shared" memory,
    // optionally rounding through FP16 (Tensor-Core input precision).
    for (std::size_t s = 0; s < batch_len; ++s) {
      const auto trow = theta.row(cols[batch + s]);
      if (params.fp16_staging) {
        round_through_half_n(trow.data(), ws.staged.data() + s * f, f, path);
      } else {
        std::copy(trow.begin(), trow.end(), ws.staged.begin() + s * f);
      }
    }

    // Accumulate the lower triangle. The scalar path mirrors the GPU
    // kernel: one "thread" per lower-triangular tile pair (x ≤ y), its T×T
    // register block adding θ^(y) ⊗ θ^(x) for every staged column. The SIMD
    // path holds row panels in vector registers instead (same bits).
    if (use_simd) {
      accumulate_rows_simd(a_out.data(), f, ws.staged.data(), batch_len);
    } else {
      for (std::size_t y = 0; y < nt; ++y) {
        for (std::size_t x = 0; x <= y; ++x) {
          real_t* block = a_out.data() + (y * tile) * f + (x * tile);
          for (std::size_t s = 0; s < batch_len; ++s) {
            accumulate_tile_scalar(block, f, tile,
                                   ws.staged.data() + s * f + x * tile,
                                   ws.staged.data() + s * f + y * tile);
          }
        }
      }
    }

    // get_bias accumulation alongside (b_u += r_uv · θ_v).
    for (std::size_t s = 0; s < batch_len; ++s) {
      const real_t ruv = vals[batch + s];
      const real_t* col = ws.staged.data() + s * f;
      if (use_simd) {
        const simd::vf8 rv = simd::vf8::broadcast(ruv);
        std::size_t i = 0;
        for (; i + 8 <= f; i += 8) {
          (simd::vf8::load(b_out.data() + i) +
           rv * simd::vf8::load(col + i))
              .store(b_out.data() + i);
        }
        for (; i < f; ++i) {
          b_out[i] += ruv * col[i];
        }
      } else {
        for (std::size_t i = 0; i < f; ++i) {
          b_out[i] += ruv * col[i];
        }
      }
    }
  }

  // Mirror the strictly-lower tiles to the upper triangle (block30' in
  // Fig. 2) — done at flush time on the GPU, done here after accumulation.
  for (std::size_t i = 0; i < f; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      a_out[j * f + i] = a_out[i * f + j];
    }
  }

  // λ·n_u ridge on the diagonal (eq. (2)).
  const real_t ridge = lambda * static_cast<real_t>(cols.size());
  for (std::size_t i = 0; i < f; ++i) {
    a_out[i * f + i] += ridge;
  }
}

void get_hermitian_row_reference(const CsrMatrix& r, const Matrix& theta,
                                 index_t u, real_t lambda,
                                 std::span<real_t> a_out,
                                 std::span<real_t> b_out) {
  const std::size_t f = theta.cols();
  CUMF_EXPECTS(a_out.size() == f * f, "A_u must be f*f");
  CUMF_EXPECTS(b_out.size() == f, "b_u must be length f");
  std::fill(a_out.begin(), a_out.end(), real_t{0});
  std::fill(b_out.begin(), b_out.end(), real_t{0});

  const auto cols = r.row_cols(u);
  const auto vals = r.row_vals(u);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    const auto t = theta.row(cols[k]);
    for (std::size_t i = 0; i < f; ++i) {
      for (std::size_t j = 0; j < f; ++j) {
        a_out[i * f + j] += t[i] * t[j];
      }
      b_out[i] += vals[k] * t[i];
    }
  }
  const real_t ridge = lambda * static_cast<real_t>(cols.size());
  for (std::size_t i = 0; i < f; ++i) {
    a_out[i * f + i] += ridge;
  }
}

HermitianValueBounds hermitian_value_bounds(const CsrMatrix& r,
                                            double theta_absmax,
                                            double lambda) {
  HermitianValueBounds out;
  for (index_t u = 0; u < r.rows(); ++u) {
    const auto nnz = static_cast<std::uint64_t>(r.row_nnz(u));
    if (nnz == 0) {
      continue;
    }
    out.max_nnz = std::max(out.max_nnz, nnz);
    out.min_nnz = out.min_nnz == 0 ? nnz : std::min(out.min_nnz, nnz);
  }
  for (const real_t v : r.values()) {
    out.rating_absmax = std::max(out.rating_absmax,
                                 std::abs(static_cast<double>(v)));
  }
  const auto n = static_cast<double>(out.max_nnz);
  out.a_offdiag_abs = n * theta_absmax * theta_absmax;
  out.a_diag_max = out.a_offdiag_abs + lambda * n;
  out.a_diag_min = lambda * static_cast<double>(out.min_nnz);
  out.b_abs = n * out.rating_absmax * theta_absmax;
  return out;
}

}  // namespace cumf
