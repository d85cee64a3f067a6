#include "src/store/stored_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace stedb::store {

double AbsDiffOrInf(double x, double y) {
  if (std::memcmp(&x, &y, sizeof(double)) == 0) return 0.0;
  const double d = std::abs(x - y);
  return std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
}

double StoredModelMaxAbsDiff(const StoredModel& a, const StoredModel& b) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (a.dim() != b.dim() || a.relation() != b.relation() ||
      a.num_embedded() != b.num_embedded()) {
    return kInf;
  }
  double worst = 0.0;
  a.ForEachPhi([&](db::FactId f, const la::Vector& va) {
    if (!b.HasEmbedding(f)) {
      worst = kInf;
      return;
    }
    const la::Vector& vb = b.phi(f);
    if (va.size() != vb.size()) {
      worst = kInf;
      return;
    }
    for (size_t i = 0; i < va.size(); ++i) {
      worst = std::max(worst, AbsDiffOrInf(va[i], vb[i]));
    }
  });
  return worst;
}

}  // namespace stedb::store
