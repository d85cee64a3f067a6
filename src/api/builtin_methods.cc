// The two embedding methods of the paper, adapted to the api::Embedder
// interface, and CreateMethod, which picks one by name. This is the only
// file that knows both concrete embedders; everything above it
// (experiments, benches, examples, serving) goes through CreateMethod.
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/api/embedder.h"
#include "src/common/string_util.h"
#include "src/fwd/codec.h"
#include "src/n2v/codec.h"
#include "src/store/embedding_store.h"
#include "src/store/stored_model.h"

namespace stedb::api {
namespace {

/// ForwardEmbedder adapter.
class ForwardMethod : public Embedder {
 public:
  ForwardMethod(const MethodOptions& options, uint64_t seed)
      : config_(options.forward) {
    config_.seed = seed;
  }

  Status TrainStatic(const db::Database* database, db::RelationId rel,
                     const AttrKeySet& excluded) override {
    auto res =
        fwd::ForwardEmbedder::TrainStatic(database, rel, excluded, config_);
    if (!res.ok()) return res.status();
    embedder_.emplace(std::move(res).value());
    return Status::OK();
  }

  Status ExtendToFacts(const std::vector<db::FactId>& new_facts) override {
    if (!embedder_.has_value()) {
      return Status::FailedPrecondition("TrainStatic was not called");
    }
    return embedder_->ExtendToFacts(new_facts);
  }

  Result<la::Vector> Embed(db::FactId f) const override {
    if (!embedder_.has_value()) {
      return Status::FailedPrecondition("TrainStatic was not called");
    }
    return embedder_->Embed(f);
  }

  Status EmbedBatch(Span<const db::FactId> facts,
                    la::MatrixView out) const override {
    if (!embedder_.has_value()) {
      return Status::FailedPrecondition("TrainStatic was not called");
    }
    return embedder_->EmbedBatch(facts, out);
  }

  Status AttachJournal(const std::string& dir) override {
    if (!embedder_.has_value()) {
      return Status::FailedPrecondition("TrainStatic was not called");
    }
    auto created = fwd::CreateForwardStore(dir, embedder_->model());
    if (!created.ok()) return created.status();
    // unique_ptr pins the store's address — the sink captures it.
    store_ =
        std::make_unique<store::EmbeddingStore>(std::move(created).value());
    embedder_->set_extension_sink(store_->MakeSink());
    return Status::OK();
  }

  Result<double> VerifyJournal() const override {
    if (store_ == nullptr) {
      return Status::FailedPrecondition("AttachJournal was not called");
    }
    STEDB_RETURN_IF_ERROR(store_->Sync());
    // Cold recovery path: re-open the directory exactly as a restarted
    // process would and diff against the live model.
    auto reopened = store::EmbeddingStore::Open(store_->dir());
    if (!reopened.ok()) return reopened.status();
    return fwd::ModelMaxAbsDiff(reopened.value().model(),
                                embedder_->model());
  }

  std::string Name() const override { return "FoRWaRD"; }

  size_t dim() const override {
    return embedder_.has_value() ? embedder_->dim() : 0;
  }

 private:
  fwd::ForwardConfig config_;
  std::optional<fwd::ForwardEmbedder> embedder_;
  std::unique_ptr<store::EmbeddingStore> store_;
};

/// Node2VecEmbedding adapter. The label column is excluded from the graph
/// (GraphOptions) rather than from T(R, lmax).
class Node2VecMethod : public Embedder {
 public:
  Node2VecMethod(const MethodOptions& options, uint64_t seed)
      : config_(options.node2vec) {
    config_.seed = seed;
  }

  Status TrainStatic(const db::Database* database, db::RelationId rel,
                     const AttrKeySet& excluded) override {
    (void)rel;  // Node2Vec embeds every fact; the relation is not special.
    for (const fwd::AttrKey& k : excluded) {
      config_.graph.excluded_columns.insert({k.rel, k.attr});
    }
    auto res = n2v::Node2VecEmbedding::TrainStatic(database, config_);
    if (!res.ok()) return res.status();
    embedding_.emplace(std::move(res).value());
    return Status::OK();
  }

  Status ExtendToFacts(const std::vector<db::FactId>& new_facts) override {
    if (!embedding_.has_value()) {
      return Status::FailedPrecondition("TrainStatic was not called");
    }
    return embedding_->ExtendToFacts(new_facts);
  }

  Result<la::Vector> Embed(db::FactId f) const override {
    if (!embedding_.has_value()) {
      return Status::FailedPrecondition("TrainStatic was not called");
    }
    return embedding_->Embed(f);
  }

  Status EmbedBatch(Span<const db::FactId> facts,
                    la::MatrixView out) const override {
    if (!embedding_.has_value()) {
      return Status::FailedPrecondition("TrainStatic was not called");
    }
    return embedding_->EmbedBatch(facts, out);
  }

  Status AttachJournal(const std::string& dir) override {
    if (!embedding_.has_value()) {
      return Status::FailedPrecondition("TrainStatic was not called");
    }
    // Snapshot the served state (every embedded fact's current vector)
    // through the Node2Vec codec; every later extension lands in the WAL
    // via the sink, with its final — frozen-from-then-on — vector.
    auto created = store::EmbeddingStore::Create(
        dir, n2v::kNode2VecMethodTag, n2v::SnapshotVectors(*embedding_));
    if (!created.ok()) return created.status();
    // unique_ptr pins the store's address — the sink captures it.
    store_ =
        std::make_unique<store::EmbeddingStore>(std::move(created).value());
    embedding_->set_extension_sink(store_->MakeSink());
    return Status::OK();
  }

  Result<double> VerifyJournal() const override {
    if (store_ == nullptr) {
      return Status::FailedPrecondition("AttachJournal was not called");
    }
    STEDB_RETURN_IF_ERROR(store_->Sync());
    // Cold recovery path: re-open the directory exactly as a restarted
    // process would and diff against the live per-fact vectors.
    auto reopened = store::EmbeddingStore::Open(store_->dir());
    if (!reopened.ok()) return reopened.status();
    return store::StoredModelMaxAbsDiff(reopened.value().model(),
                                        *n2v::SnapshotVectors(*embedding_));
  }

  std::string Name() const override { return "Node2Vec"; }

  size_t dim() const override {
    return embedding_.has_value() ? embedding_->dim() : 0;
  }

 private:
  n2v::Node2VecConfig config_;
  std::optional<n2v::Node2VecEmbedding> embedding_;
  std::unique_ptr<store::EmbeddingStore> store_;
};

}  // namespace

Result<std::unique_ptr<Embedder>> CreateMethod(const std::string& name,
                                               const MethodOptions& options,
                                               uint64_t seed) {
  const std::string key = ToLower(name);
  std::unique_ptr<Embedder> method;
  if (key == "forward") {
    method = std::make_unique<ForwardMethod>(options, seed);
  } else if (key == "node2vec") {
    method = std::make_unique<Node2VecMethod>(options, seed);
  } else {
    return Status::NotFound("unknown embedding method '" + name +
                            "' (known: forward, node2vec)");
  }
  return method;
}

}  // namespace stedb::api
