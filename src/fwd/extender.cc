#include "src/fwd/extender.h"

#include <algorithm>
#include <optional>

#include "src/common/parallel.h"
#include "src/la/kernels.h"
#include "src/la/solve.h"
#include "src/la/svd.h"

namespace stedb::fwd {

Result<la::Vector> ForwardExtender::SolveOne(
    const ForwardModel& model, const std::vector<db::FactId>& old_facts,
    db::FactId f_new, Rng& rng) {
  const db::Schema& schema = db_->schema();
  const size_t d = model.dim();

  // Accumulate the normal equations N = C^T C, rhs = C^T b streaming, so C
  // (which can have tens of thousands of rows at paper-scale sampling
  // counts) is never materialized.
  la::Matrix normal(d, d, 0.0);
  la::Vector rhs(d, 0.0);
  la::Vector c(d);
  size_t rows = 0;

  for (size_t t = 0; t < model.targets().size(); ++t) {
    const WalkScheme& s = model.scheme_of(t);
    const db::AttrId attr = model.targets()[t].attr;
    ValueDistribution new_dist = dist_.Compute(s, attr, f_new, rng);
    if (!new_dist.exists()) continue;  // d_{s,f_new}[A] does not exist
    const Kernel& kernel = kernels_->Get(s.End(schema), attr);
    const la::Matrix& psi = model.psi(t);

    // Sample distinct old facts for this target.
    const size_t want =
        std::min<size_t>(config_.new_samples, old_facts.size());
    // Partial Fisher-Yates over a scratch copy of indices.
    std::vector<size_t> idx(old_facts.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (size_t i = 0; i < want; ++i) {
      size_t j = i + rng.NextIndex(idx.size() - i);
      std::swap(idx[i], idx[j]);
    }
    for (size_t i = 0; i < want; ++i) {
      const db::FactId f_old = old_facts[idx[i]];
      const ValueDistribution& old_dist = cache_->Get(model, f_old, t);
      if (!old_dist.exists()) continue;
      const double b = WalkDistribution::ExpectedKernel(old_dist, new_dist,
                                                        kernel);
      // Row c = psi * phi(f_old)   (Eq. 7).
      la::MatVec(psi.data().data(), d, d, model.phi(f_old).data(), c.data());
      // N += c c^T ; rhs += b * c. Both skip the rows where c_r == 0.
      la::AddOuter(normal.data().data(), d, d, c.data(), c.data());
      for (size_t r = 0; r < d; ++r) {
        if (c[r] != 0.0) rhs[r] += b * c[r];
      }
      ++rows;
    }
  }

  if (rows == 0) {
    // Completely disconnected new fact: no constraint reaches it. Embed at
    // the origin — a neutral point that keeps downstream features finite.
    return la::Vector(d, 0.0);
  }

  if (config_.use_pinv) {
    // Min-norm least squares via the pseudoinverse of the (d x d) normal
    // matrix: x = N^+ rhs, equivalent to C^+ b on the row space (Eq. 10).
    STEDB_ASSIGN_OR_RETURN(la::Matrix pinv, la::PseudoInverse(normal));
    return pinv.MultiplyVec(rhs);
  }
  for (size_t i = 0; i < d; ++i) normal(i, i) += config_.ridge;
  return la::CholeskySolve(normal, rhs);
}

Result<la::Vector> ForwardExtender::Extend(ForwardModel& model,
                                           db::FactId f_new, Rng& rng) {
  if (!db_->IsLive(f_new)) {
    return Status::NotFound("new fact is not live");
  }
  if (db_->fact(f_new).rel != model.relation()) {
    return Status::InvalidArgument(
        "fact belongs to a different relation than the model");
  }
  if (model.HasEmbedding(f_new)) {
    return Status::AlreadyExists("fact already has an embedding");
  }
  const std::vector<db::FactId> old_facts = model.SortedFacts();
  if (old_facts.empty()) {
    return Status::FailedPrecondition("model has no embedded facts");
  }
  STEDB_ASSIGN_OR_RETURN(la::Vector solution,
                         SolveOne(model, old_facts, f_new, rng));
  model.set_phi(f_new, solution);
  return solution;
}

Status ForwardExtender::ExtendBatch(ForwardModel& model,
                                    const std::vector<db::FactId>& facts,
                                    int threads, Rng& rng,
                                    std::vector<db::FactId>* extended) {
  // One serial draw per call — unconditionally, so the caller's rng
  // state depends only on how many batches ran, never on what they
  // contained (the documented "advances exactly once per call").
  const Rng batch_root = rng.Fork();

  // Ascending + deduplicated: the solve order the results are installed
  // in, independent of the caller's arrival order.
  std::vector<db::FactId> todo = facts;
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  if (todo.empty()) return Status::OK();

  for (db::FactId f : todo) {
    if (!db_->IsLive(f)) return Status::NotFound("new fact is not live");
    if (db_->fact(f).rel != model.relation()) {
      return Status::InvalidArgument(
          "fact belongs to a different relation than the model");
    }
    if (model.HasEmbedding(f)) {
      return Status::AlreadyExists("fact already has an embedding");
    }
  }

  const std::vector<db::FactId> old_facts = model.SortedFacts();
  if (old_facts.empty()) {
    return Status::FailedPrecondition("model has no embedded facts");
  }

  // Each fact forks its own counter-based stream off the batch root,
  // keyed by its id — scheduling order cannot touch it. All solves read
  // the model as of batch entry: within one arrival batch no new fact
  // samples another, which also makes the result independent of arrival
  // order (matching the fact-id-ordered journal).
  std::vector<std::optional<Result<la::Vector>>> solutions(todo.size());
  ParallelFor(threads, todo.size(), [&](size_t i) {
    Rng fact_rng = batch_root.Fork(static_cast<uint64_t>(todo[i]));
    solutions[i].emplace(SolveOne(model, old_facts, todo[i], fact_rng));
  });

  for (size_t i = 0; i < todo.size(); ++i) {
    if (!solutions[i]->ok()) return solutions[i]->status();
    model.set_phi(todo[i], std::move(solutions[i]->value()));
    if (extended != nullptr) extended->push_back(todo[i]);
  }
  return Status::OK();
}

}  // namespace stedb::fwd
