#ifndef STEDB_EXP_EMBEDDING_METHOD_H_
#define STEDB_EXP_EMBEDDING_METHOD_H_

#include "src/api/embedder.h"

namespace stedb::exp {

/// Experiment scale presets. kSmoke is for tests/CI, kPaper approaches the
/// paper's hyperparameters (Table II) — expensive on a single CPU core.
enum class RunScale { kSmoke, kDefault, kPaper };

/// Reads STEDB_SCALE=smoke|default|paper (unset/empty: default). Any other
/// value is a fatal error — a typo'd scale must not silently run the
/// default-scale experiment.
RunScale ScaleFromEnv();

/// Per-method hyperparameters (the api::MethodOptions handed to
/// api::CreateMethod) plus the dataset scale factor the experiment
/// generators use.
struct MethodConfig : api::MethodOptions {
  /// Dataset size multiplier passed to the generators.
  double data_scale = 1.0;

  /// Preset for a scale (embedding dims, epochs, sample counts, data size).
  static MethodConfig ForScale(RunScale scale);
};

}  // namespace stedb::exp

#endif  // STEDB_EXP_EMBEDDING_METHOD_H_
