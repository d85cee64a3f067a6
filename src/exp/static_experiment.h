#ifndef STEDB_EXP_STATIC_EXPERIMENT_H_
#define STEDB_EXP_STATIC_EXPERIMENT_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/generator.h"
#include "src/exp/embedding_method.h"
#include "src/ml/cross_validation.h"

namespace stedb::exp {

/// Configuration of the static-classification experiment (paper
/// Section VI-D / Table III).
struct StaticConfig {
  int folds = 10;                 ///< k-fold stratified CV (paper: 10)
  /// Train a fresh embedding per fold (the paper's protocol). Off = one
  /// embedding shared by all folds (faster; the classifier split still
  /// changes).
  bool embedding_per_fold = true;
  ml::ClassifierKind classifier = ml::ClassifierKind::kLogistic;
  /// Worker threads for the per-fold fan-out (0 = default: STEDB_THREADS
  /// env var, else hardware concurrency). When folds run concurrently,
  /// each fold's embedding trains single-threaded — results are
  /// bit-identical either way, this only avoids oversubscription.
  int threads = 0;
  uint64_t seed = 123;
};

/// Result of one (dataset, method) static run.
struct StaticResult {
  std::string dataset;
  std::string method;
  double mean_accuracy = 0.0;
  double std_accuracy = 0.0;
  double majority_baseline = 0.0;
  double embed_train_seconds = 0.0;  ///< total embedding training time
};

/// Runs the static experiment for one embedding method ("forward" or
/// "node2vec", see api::CreateMethod) on one dataset.
Result<StaticResult> RunStaticExperiment(const data::GeneratedDataset& ds,
                                         const std::string& method,
                                         const MethodConfig& mcfg,
                                         const StaticConfig& scfg);

/// The "S.o.A." stand-in: a classifier over the prediction relation's own
/// non-key/non-FK attributes (one-hot categoricals + standardized numerics),
/// ignoring all FK context. See DESIGN.md §4.
Result<StaticResult> RunFlatBaseline(const data::GeneratedDataset& ds,
                                     const StaticConfig& scfg);

/// Builds the labelled embedding dataset for prediction facts that live in
/// `database` (which may be an experiment's mutated copy): features from
/// `method` (already trained), labels from `pred_attr`.
Result<ml::FeatureDataset> EmbeddingFeatures(
    const db::Database& database, db::AttrId pred_attr,
    const api::Embedder& method, const std::vector<db::FactId>& facts,
    ml::LabelEncoder& encoder);

/// Convenience overload over the dataset's own database.
Result<ml::FeatureDataset> EmbeddingFeatures(
    const data::GeneratedDataset& ds, const api::Embedder& method,
    const std::vector<db::FactId>& facts, ml::LabelEncoder& encoder);

/// The excluded-attribute set for a dataset (its label column).
fwd::AttrKeySet LabelExclusion(const data::GeneratedDataset& ds);

}  // namespace stedb::exp

#endif  // STEDB_EXP_STATIC_EXPERIMENT_H_
