#ifndef STEDB_API_EMBEDDER_H_
#define STEDB_API_EMBEDDER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/span.h"
#include "src/common/status.h"
#include "src/db/database.h"
#include "src/fwd/forward.h"
#include "src/la/matrix.h"
#include "src/n2v/node2vec.h"

namespace stedb::api {

/// Attribute keys the embedding must not see (the prediction label);
/// shared with the FoRWaRD layer, where the type originates.
using AttrKeySet = fwd::AttrKeySet;

/// Hyperparameters handed to CreateMethod. Each method reads its own
/// sub-config and ignores the other.
struct MethodOptions {
  fwd::ForwardConfig forward;
  n2v::Node2VecConfig node2vec;
};

/// The engine's uniform embedding-method interface: one instance = one
/// (trainable, dynamically extensible, durably journal-able) embedding of
/// one database. The two implementations, FoRWaRD and Node2Vec, live in
/// builtin_methods.cc; CreateMethod is the only way to make one.
///
/// Lifecycle: TrainStatic once, then any interleaving of ExtendToFacts /
/// Embed / EmbedBatch. The stability contract of the paper holds for every
/// implementation: a vector returned once is never changed by a later
/// extension.
class Embedder {
 public:
  virtual ~Embedder() = default;

  /// Static phase over the database's current contents. `rel` is the
  /// prediction relation, `excluded` the label attribute(s) the embedding
  /// must not see. The database must outlive this object.
  virtual Status TrainStatic(const db::Database* database, db::RelationId rel,
                             const AttrKeySet& excluded) = 0;

  /// Dynamic phase: the facts (all relations) just inserted into the
  /// database. Must leave every previously returned embedding unchanged.
  virtual Status ExtendToFacts(const std::vector<db::FactId>& new_facts) = 0;

  /// Embedding of a single fact; NotFound for facts never embedded.
  virtual Result<la::Vector> Embed(db::FactId f) const = 0;

  /// Batch read: fills `out` with one embedding per requested fact, row i
  /// holding φ(facts[i]). `out` must be facts.size() x dim(). Fails with
  /// InvalidArgument on a shape mismatch and NotFound when any fact was
  /// never embedded; `out` contents are unspecified after an error. Large
  /// batches fan out with ParallelFor — this is the hot path feature
  /// extraction and serving go through.
  virtual Status EmbedBatch(Span<const db::FactId> facts,
                            la::MatrixView out) const = 0;

  /// Starts journaling this method's model into a store::EmbeddingStore at
  /// `dir`: snapshot of the trained model now, one WAL record per future
  /// extension. Must be called after TrainStatic.
  virtual Status AttachJournal(const std::string& dir) = 0;

  /// Re-opens the attached journal cold (snapshot + WAL replay, as a crash
  /// recovery would) and returns the max absolute deviation between the
  /// recovered and the in-memory embeddings — 0.0 when durability is
  /// bit-exact.
  virtual Result<double> VerifyJournal() const = 0;

  /// Display name ("FoRWaRD" or "Node2Vec"), used in experiment reports.
  virtual std::string Name() const = 0;

  /// Embedding dimension; 0 before TrainStatic.
  virtual size_t dim() const = 0;
};

/// Builds an untrained method by name: "forward" (FoRWaRD) or "node2vec",
/// in any case. `seed` controls all of the instance's randomness.
/// NotFound, naming both, for any other name.
Result<std::unique_ptr<Embedder>> CreateMethod(const std::string& name,
                                               const MethodOptions& options,
                                               uint64_t seed);

}  // namespace stedb::api

#endif  // STEDB_API_EMBEDDER_H_
