#ifndef STEDB_FWD_WALK_DISTRIBUTION_H_
#define STEDB_FWD_WALK_DISTRIBUTION_H_

#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/db/database.h"
#include "src/fwd/kernel.h"
#include "src/fwd/walk_scheme.h"

namespace stedb::fwd {

/// The distribution of d_{s,f}[A]: normalized probabilities over the
/// non-null destination values, conditioned on the walk completing and the
/// value being non-null (the paper's posterior convention, Section V-A).
/// Empty == d_{s,f}[A] does not exist.
struct ValueDistribution {
  std::vector<std::pair<db::Value, double>> probs;

  bool exists() const { return !probs.empty(); }
  size_t support_size() const { return probs.size(); }
  /// Sum of probabilities (1.0 up to rounding when non-empty).
  double TotalMass() const;
};

/// Computes destination-value distributions, exactly or by Monte Carlo.
///
/// The exact computation is the "simple breadth first search along the
/// sequence of foreign keys" the paper describes: probability mass is pushed
/// through the walk DAG level by level. Mass that dead-ends (null FK image /
/// no referencing fact) is discarded and the result renormalized, which is
/// precisely conditioning on walk completion.
class WalkDistribution {
 public:
  /// `max_fact_support`: when the intermediate fact-level support grows past
  /// this bound the exact BFS aborts and Compute falls back to sampling with
  /// `fallback_samples` draws.
  explicit WalkDistribution(const db::Database* database,
                            size_t max_fact_support = 8192,
                            int fallback_samples = 256)
      : db_(database),
        max_fact_support_(max_fact_support),
        fallback_samples_(fallback_samples) {}

  /// Exact distribution of d_{s,f}[A]; empty when it does not exist or the
  /// support bound was exceeded. The result cannot tell the two apart:
  /// Compute therefore samples whenever Exact comes back empty.
  ValueDistribution Exact(const WalkScheme& s, db::AttrId attr,
                          db::FactId start) const;

  /// Monte Carlo estimate from `n` completed walks.
  ValueDistribution Sampled(const WalkScheme& s, db::AttrId attr,
                            db::FactId start, int n, Rng& rng) const;

  /// Exact when the support bound allows, otherwise sampled.
  ValueDistribution Compute(const WalkScheme& s, db::AttrId attr,
                            db::FactId start, Rng& rng) const;

  /// Expected Kernel Distance (paper Eq. 2):
  /// KD = E[κ(X, Y)], X ~ da, Y ~ db, independent.
  static double ExpectedKernel(const ValueDistribution& da,
                               const ValueDistribution& db,
                               const Kernel& kernel);

 private:
  const db::Database* db_;
  size_t max_fact_support_;
  int fallback_samples_;
};

}  // namespace stedb::fwd

#endif  // STEDB_FWD_WALK_DISTRIBUTION_H_
