// cumf_serve — online top-k recommendation over a trained factor model.
//
// Training (cumf_train) produces X and Θ; this layer is the deployment half
// the paper motivates (§VII): answer "best k unseen items for user u" under
// heavy traffic, and absorb the rating stream without a re-train. Three
// mechanisms carry the load:
//
//  * Sharded batched scoring. Items are partitioned into contiguous shards;
//    each shard is scored with the batched dot_rows gemv (four Θ rows per
//    pass sharing the x_u loads) and reduced by a bounded TopKSelector, and
//    the ≤ shards·k survivors merge through a final selector. Because the
//    ranking order is total, the result is bit-identical to the offline
//    recommend_top_k brute force — ties included — for any shard count.
//
//  * Hot-user factor cache. An LRU cache of x_u row copies serves repeat
//    users without touching the (potentially huge, potentially cold) factor
//    matrix. Entries are exact row copies and fold-ins invalidate them, so
//    cache hits can never change a response — only its latency.
//
//  * Incremental fold-in. A streamed rating re-solves the user's normal
//    equations (A_u = Σ θ_v θ_vᵀ + λ·n_u·I, the same ALS-WR system training
//    uses) against the frozen Θ through the PR 4 SystemSolver, inheriting
//    its full degradation ladder (FP16 overflow → FP32 retry, CG breakdown
//    → exact LU, failure → factor restored). A rating for user id == users()
//    grows the model by one user row — a genuinely new user from the
//    stream. New items are rejected: Θ is frozen at serve time; items need
//    a re-batch.
//
// Thread model: top_k takes a shared lock, observe/fold_in_user take an
// exclusive lock, and the cache synchronizes itself — many concurrent
// readers, single writer.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/solver.hpp"
#include "data/model_io.hpp"
#include "metrics/ranking.hpp"
#include "simd/vec.hpp"
#include "sparse/csr.hpp"

namespace cumf::serve {

/// Thrown for requests the service cannot honour: unknown users,
/// non-contiguous new-user ids, ratings for items Θ has no row for, and
/// empty fold-ins. Loud and named so callers can distinguish a bad request
/// from an internal invariant failure.
class ServeError : public CheckError {
 public:
  using CheckError::CheckError;
};

struct ServeOptions {
  /// Contiguous item shards scored independently (heap-merged at the end).
  std::size_t shards = 1;
  /// Hot-user factor cache capacity in entries; 0 disables the cache.
  std::size_t cache_capacity = 0;
  /// Fold-in ridge weight; use the λ the model was trained with so folded
  /// factors live on the same regularization scale as trained ones.
  real_t lambda = 0.05f;
  /// Fold-in solver; the degradation ladder guards every solve.
  SolverOptions solver{};
  /// Kernel path for scoring (scalar pins the reference loops for tests).
  simd::KernelPath path = simd::kDefaultPath;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
};

/// LRU cache of user factor rows (exact copies, so hits are result-neutral
/// by construction). Internally synchronized; lookup copies into the
/// caller's buffer so no reference outlives the cache's own lock.
class FactorCache {
 public:
  FactorCache(std::size_t capacity, std::size_t f);

  /// Copies the cached row for `user` into `out` and bumps its recency.
  bool lookup(index_t user, std::span<real_t> out);
  /// Inserts/overwrites the row, evicting the least-recent entry at capacity.
  void insert(index_t user, std::span<const real_t> row);
  /// Drops the entry (fold-in wrote a new factor).
  void invalidate(index_t user);

  bool enabled() const noexcept { return capacity_ > 0; }
  CacheStats stats() const;

 private:
  struct Entry {
    std::vector<real_t> row;
    std::list<index_t>::iterator recency;  ///< position in lru_
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::size_t f_;
  std::list<index_t> lru_;  ///< most-recent first
  std::unordered_map<index_t, Entry> entries_;
  CacheStats stats_;
};

class ServeEngine {
 public:
  /// One (item, rating) observation for fold_in_user.
  using ItemRating = std::pair<index_t, real_t>;

  /// Takes ownership of the model; `seen` marks the already-rated items the
  /// top-k must exclude (its shape must match the factors).
  ServeEngine(FactorModel model, CsrMatrix seen, ServeOptions options = {});

  /// Best k unseen items for `user`, bit-identical to the offline
  /// recommend_top_k on the equivalent model state. Thread-safe against
  /// concurrent top_k calls and serialized against fold-ins.
  std::vector<ScoredItem> top_k(index_t user, std::size_t k) const;

  /// Absorbs one streamed rating: upserts it into the user's seen set and
  /// re-solves the user's factor row against the frozen Θ (degradation
  /// ladder applies). `rating.u == users()` folds in a brand-new user;
  /// larger ids and ratings for items ≥ items() throw ServeError.
  void observe(const Rating& rating);

  /// Folds in a new user from a batch of (item, rating) observations and
  /// returns the assigned user id (== the previous users()).
  index_t fold_in_user(std::span<const ItemRating> ratings);

  index_t users() const;
  index_t items() const;
  std::size_t f() const noexcept { return f_; }

  /// Copy of the (possibly folded-in) factor row — determinism tests
  /// compare these across replayed streams.
  std::vector<real_t> user_factor(index_t user) const;

  SolveStats solve_stats() const;
  CacheStats cache_stats() const { return cache_.stats(); }
  const ServeOptions& options() const noexcept { return options_; }

 private:
  index_t users_locked() const noexcept {
    return static_cast<index_t>(base_users_ + extra_x_.size() / f_);
  }
  std::span<const real_t> user_row_locked(index_t user) const;
  std::span<real_t> user_row_locked(index_t user);
  const std::vector<ItemRating>* overlay_row(index_t user) const;
  void upsert_overlay(index_t user, index_t item, real_t value);
  /// Re-solves user's normal equations from base + overlay ratings.
  void refold_locked(index_t user);

  ServeOptions options_;
  std::size_t f_;
  std::size_t base_users_;
  Matrix x_;      ///< trained user factors (frozen shape)
  Matrix theta_;  ///< item factors, frozen at serve time
  CsrMatrix seen_;
  /// Folded-in user rows, f_ values each, appended past base_users_.
  std::vector<real_t> extra_x_;
  /// Streamed ratings per user, item-sorted, latest value wins.
  std::unordered_map<index_t, std::vector<ItemRating>> overlay_;
  std::vector<std::pair<std::size_t, std::size_t>> shards_;
  mutable FactorCache cache_;
  SystemSolver solver_;
  mutable std::shared_mutex mutex_;
};

/// Every served user row (folded-in users included) as one matrix, so the
/// serving state can be scored with rmse() or saved as a FactorModel.
Matrix served_user_factors(const ServeEngine& engine);

}  // namespace cumf::serve
