#ifndef STEDB_API_EMBEDDER_H_
#define STEDB_API_EMBEDDER_H_

#include <map>
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

/// Hyperparameters handed to a method factory. The two built-in methods
/// read their own sub-config and ignore the other; externally registered
/// methods can carry free-form parameters in `extra` without the core
/// API growing a field per plugin.
struct MethodOptions {
  fwd::ForwardConfig forward;
  n2v::Node2VecConfig node2vec;
  /// Untyped parameter bag for registered third-party methods.
  std::map<std::string, std::string> extra;
};

/// The engine's uniform embedding-method interface: one instance = one
/// (trainable, dynamically extensible, durably journal-able) embedding of
/// one database. Built-in implementations (FoRWaRD, Node2Vec) register
/// themselves with the method registry (see registry.h); external code can
/// implement and register additional methods without touching this header.
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
  /// never embedded; `out` contents are unspecified after an error. The
  /// built-in methods parallelize large batches with ParallelFor —
  /// this is the hot path feature extraction and serving go through.
  /// The default implementation loops the scalar Embed, so registered
  /// methods get the batch surface for free.
  virtual Status EmbedBatch(Span<const db::FactId> facts,
                            la::MatrixView out) const;

  /// Starts journaling this method's model into a store::EmbeddingStore at
  /// `dir`: snapshot of the trained model now, one WAL record per future
  /// extension. Must be called after TrainStatic. Both built-ins support
  /// this via their registered store::ModelCodec; the default is
  /// FailedPrecondition for third-party methods that registered no codec.
  virtual Status AttachJournal(const std::string& dir) {
    (void)dir;
    return Status::FailedPrecondition(Name() + " does not support journaling");
  }

  /// Re-opens the attached journal cold (snapshot + WAL replay, as a crash
  /// recovery would) and returns the max absolute deviation between the
  /// recovered and the in-memory embeddings — 0.0 when durability is
  /// bit-exact.
  virtual Result<double> VerifyJournal() const {
    return Status::FailedPrecondition(Name() + " does not support journaling");
  }

  /// Display name ("FoRWaRD", "Node2Vec", ...), used in experiment reports.
  virtual std::string Name() const = 0;

  /// Embedding dimension; 0 before TrainStatic.
  virtual size_t dim() const = 0;
};

}  // namespace stedb::api

#endif  // STEDB_API_EMBEDDER_H_
