// Online recommendation service (paper §VII future work): ALS for the
// initial batch training, then each new rating folded in as it streams in
// (serve::ServeEngine::observe re-solves the user's ALS-WR row against the
// frozen Θ, through the solver's degradation ladder), a full re-train once
// the stream has grown the data enough, and model persistence between
// "service restarts".
#include <cstdio>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "core/als.hpp"
#include "data/generator.hpp"
#include "data/model_io.hpp"
#include "metrics/rmse.hpp"
#include "serve/serve.hpp"
#include "sparse/split.hpp"

int main() {
  using namespace cumf;

  // Yesterday's ratings: the batch.
  SyntheticConfig config;
  config.m = 1200;
  config.n = 200;
  config.nnz = 36'000;
  config.seed = 2026;
  const auto data = generate_synthetic(config);
  Rng rng(4);
  const auto split = split_holdout(data.ratings, 0.15, rng);

  AlsOptions options;
  options.f = 24;
  options.lambda = 0.05f;
  options.solver.kind = SolverKind::CgFp16;  // paper's fast solver
  const auto train_batch = [&](const RatingsCoo& ratings) {
    AlsEngine als(ratings, options);
    for (int epoch = 0; epoch < 8; ++epoch) {
      als.run_epoch();
    }
    return FactorModel{als.user_factors(), als.item_factors()};
  };
  FactorModel batch = train_batch(split.train);
  std::printf("batch phase done: test RMSE %.4f\n",
              rmse(split.test, batch.x, batch.theta));

  // Today's traffic: the held-out ratings arrive one by one and are folded
  // in with the λ and solver training used.
  serve::ServeOptions serve_options;
  serve_options.lambda = options.lambda;
  serve_options.solver = options.solver;
  const Matrix theta = batch.theta;
  serve::ServeEngine service(std::move(batch),
                             CsrMatrix::from_coo(split.train), serve_options);
  int absorbed = 0;
  for (const Rating& e : split.test.entries()) {
    service.observe(e);
    ++absorbed;
    if (absorbed % 2000 == 0) {
      std::printf("  %5d ratings folded in, RMSE on stream %.4f\n", absorbed,
                  rmse(split.test, serve::served_user_factors(service), theta));
    }
  }
  FactorModel model{serve::served_user_factors(service), theta};
  std::printf("all %d folded in: RMSE on stream %.4f\n", absorbed,
              rmse(split.test, model.x, model.theta));

  // Fold-in never moves Θ, so once the stream has grown the data by 10 %
  // the service re-trains from scratch on everything seen.
  constexpr double kRebatchGrowth = 0.10;
  const double growth = static_cast<double>(split.test.nnz()) /
                        static_cast<double>(split.train.nnz());
  if (growth >= kRebatchGrowth) {
    RatingsCoo all = split.train;
    for (const Rating& e : split.test.entries()) {
      all.add(e.u, e.v, e.r);
    }
    model = train_batch(all);
    std::printf("stream grew the data by %.0f%% (>= %.0f%%): re-trained, "
                "RMSE on stream %.4f\n",
                growth * 100, kRebatchGrowth * 100,
                rmse(split.test, model.x, model.theta));
  }

  // Persist the model for the next service start.
  const std::string path = "/tmp/cumf_online_model.txt";
  write_model_file(path, model);
  const auto restored = read_model_file(path);
  std::printf("model saved and restored: %zux%zu user factors, %zux%zu item "
              "factors\n",
              restored.x.rows(), restored.x.cols(), restored.theta.rows(),
              restored.theta.cols());
  return 0;
}
