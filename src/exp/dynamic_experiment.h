#ifndef STEDB_EXP_DYNAMIC_EXPERIMENT_H_
#define STEDB_EXP_DYNAMIC_EXPERIMENT_H_

#include <string>

#include "src/common/status.h"
#include "src/data/generator.h"
#include "src/exp/embedding_method.h"
#include "src/ml/cross_validation.h"

namespace stedb::exp {

/// Configuration of the dynamic experiment (paper Section VI-E):
/// 1. partition the database into F_old / F_new (stratified + cascade),
/// 2. train the embedding and the downstream classifier on F_old,
/// 3. replay the F_new arrivals and extend the embedding (one-by-one or
///    all-at-once),
/// 4. evaluate the classifier on the *new* prediction tuples only.
struct DynamicConfig {
  double new_ratio = 0.1;     ///< fraction of prediction tuples in F_new
  bool one_by_one = true;     ///< paper's two extension regimes
  int runs = 10;              ///< repetitions with different partitions
  ml::ClassifierKind classifier = ml::ClassifierKind::kLogistic;
  /// Verify after every run that no old embedding moved (stability check).
  bool check_stability = true;
  /// Worker threads for the run fan-out (0 = default: STEDB_THREADS env
  /// var, else hardware concurrency). Runs are independent — each owns a
  /// private database copy — and concurrent execution leaves every
  /// reported number except wall-clock timings bit-identical.
  int threads = 0;
  /// When non-empty, every run journals its model into
  /// `<journal_dir>/run<r>` (binary snapshot after static training + one
  /// WAL record per extension — see src/store/) and, after the replay,
  /// verifies that a cold store::EmbeddingStore::Open() recovers the
  /// in-memory embeddings bit-exactly. Both methods journal through
  /// their store::ModelCodec.
  std::string journal_dir;
  uint64_t seed = 321;
};

struct DynamicResult {
  std::string dataset;
  std::string method;
  double new_ratio = 0.0;
  bool one_by_one = true;
  double mean_accuracy = 0.0;       ///< on new tuples only (paper Fig. 5)
  double std_accuracy = 0.0;
  double majority_baseline = 0.0;   ///< most-common-class accuracy
  /// Average wall-clock seconds to embed one newly arrived prediction tuple
  /// (training + inference; paper Table VI).
  double seconds_per_new_tuple = 0.0;
  /// Max drift of old embeddings across all runs (must be exactly 0).
  double stability_drift = 0.0;
  size_t avg_new_facts = 0;         ///< facts per run incl. cascade companions
  /// Journaling mode only: max deviation across runs between each run's
  /// in-memory model and its crash-recovered store (must be exactly 0).
  double journal_drift = 0.0;
  bool journaled = false;           ///< journaling ran for at least one run
};

/// Runs the dynamic experiment for one method ("forward" or "node2vec",
/// see api::CreateMethod) on one dataset.
Result<DynamicResult> RunDynamicExperiment(const data::GeneratedDataset& ds,
                                           const std::string& method,
                                           const MethodConfig& mcfg,
                                           const DynamicConfig& dcfg);

}  // namespace stedb::exp

#endif  // STEDB_EXP_DYNAMIC_EXPERIMENT_H_
