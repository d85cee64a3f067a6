#ifndef STEDB_STORE_STORED_MODEL_H_
#define STEDB_STORE_STORED_MODEL_H_

#include <functional>
#include <map>

#include "src/common/status.h"
#include "src/db/database.h"
#include "src/la/matrix.h"

namespace stedb::store {

/// What the durability layer tracks for *any* embedding method: the
/// per-fact embedding map plus enough shape metadata (dimension, embedded
/// relation) to validate journal records against it. Concrete methods wrap
/// their full model behind this interface (e.g. fwd::ForwardStoredModel
/// keeps the walk schemes and ψ matrices too); the store itself only ever
/// needs the operations below — replaying a WAL record is `set_phi`,
/// compacting is handing the model back to its codec.
///
/// Contract: ForEachPhi visits facts in strictly ascending fact-id order,
/// so codecs that serialize through it produce deterministic bytes.
class StoredModel {
 public:
  virtual ~StoredModel() = default;

  virtual size_t dim() const = 0;
  /// The embedded relation, or -1 for methods that embed every relation
  /// (Node2Vec).
  virtual db::RelationId relation() const = 0;

  virtual size_t num_embedded() const = 0;
  virtual bool HasEmbedding(db::FactId f) const = 0;
  /// φ(f); undefined when !HasEmbedding(f).
  virtual const la::Vector& phi(db::FactId f) const = 0;
  /// Inserts or overwrites φ(f) — the WAL replay hook. Overwrites happen
  /// only in the compaction crash window, where the bytes are identical.
  virtual void set_phi(db::FactId f, la::Vector v) = 0;
  /// Visits every (fact, φ) in ascending fact-id order.
  virtual void ForEachPhi(
      const std::function<void(db::FactId, const la::Vector&)>& fn) const = 0;
};

/// The minimal StoredModel: a sorted fact → vector map and nothing else.
/// This is the whole durable state of any method whose auxiliary model
/// (graphs, vocabularies, context matrices) is derivable from the database
/// — Node2Vec's codec uses it directly, and tests use it as a scratch
/// model.
class VectorSetModel : public StoredModel {
 public:
  VectorSetModel(size_t dim, db::RelationId relation)
      : dim_(dim), relation_(relation) {}

  size_t dim() const override { return dim_; }
  db::RelationId relation() const override { return relation_; }
  size_t num_embedded() const override { return phi_.size(); }
  bool HasEmbedding(db::FactId f) const override { return phi_.count(f) > 0; }
  const la::Vector& phi(db::FactId f) const override { return phi_.at(f); }
  void set_phi(db::FactId f, la::Vector v) override {
    phi_[f] = std::move(v);
  }
  void ForEachPhi(const std::function<void(db::FactId, const la::Vector&)>&
                      fn) const override {
    for (const auto& [f, v] : phi_) fn(f, v);  // std::map: ascending
  }

 private:
  size_t dim_;
  db::RelationId relation_;
  std::map<db::FactId, la::Vector> phi_;
};

/// |x − y| for one component of a recovery diff, comparing NaNs by
/// representation: bit-identical values (NaNs included) give 0, and a
/// NaN-valued difference gives +inf instead of vanishing inside std::max
/// (where NaN comparisons are always false).
double AbsDiffOrInf(double x, double y);

/// Largest absolute entry-wise deviation between two models' embedding
/// maps; +inf on any structural mismatch (dim, relation, or embedded-fact
/// sets differ). 0.0 means bit-exact agreement — the generic recovery
/// acceptance criterion. NaNs compare by representation: a bit-identical
/// NaN contributes 0, a NaN-valued difference reports +inf.
double StoredModelMaxAbsDiff(const StoredModel& a, const StoredModel& b);

}  // namespace stedb::store

#endif  // STEDB_STORE_STORED_MODEL_H_
