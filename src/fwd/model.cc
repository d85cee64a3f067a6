#include "src/fwd/model.h"

#include <algorithm>

namespace stedb::fwd {

ForwardModel::ForwardModel(db::RelationId relation, size_t dim,
                           std::vector<WalkScheme> schemes,
                           std::vector<SchemeTarget> targets)
    : relation_(relation),
      dim_(dim),
      schemes_(std::move(schemes)),
      targets_(std::move(targets)),
      psi_(targets_.size()) {}

Result<la::Vector> ForwardModel::Embed(db::FactId f) const {
  auto it = phi_.find(f);
  if (it == phi_.end()) {
    return Status::NotFound("fact has no FoRWaRD embedding");
  }
  return it->second;
}

std::vector<db::FactId> ForwardModel::SortedFacts() const {
  std::vector<db::FactId> facts;
  facts.reserve(phi_.size());
  for (const auto& [f, v] : phi_) facts.push_back(f);
  std::sort(facts.begin(), facts.end());
  return facts;
}

la::Vector* ForwardModel::mutable_phi(db::FactId f) {
  auto it = phi_.find(f);
  return it == phi_.end() ? nullptr : &it->second;
}

void ForwardModel::InitPsi(double stddev, Rng& rng) {
  for (la::Matrix& m : psi_) {
    m = la::Matrix::RandomSymmetric(dim_, stddev, rng);
    // Bias toward identity so initial scores correlate positively with
    // vector similarity; purely an optimization warm start.
    for (size_t i = 0; i < dim_; ++i) m(i, i) += 1.0;
  }
}

double ForwardModel::Score(db::FactId f, db::FactId g, size_t target) const {
  // Dot(ψᵀφ(f), φ(g)) through la::LeftProject: the formula the serving
  // scorers use, so a served score is bit-equal to this one.
  return la::Dot(psi_[target].TransposeMultiplyVec(phi_.at(f)), phi_.at(g));
}

}  // namespace stedb::fwd
