#ifndef STEDB_FWD_FORWARD_H_
#define STEDB_FWD_FORWARD_H_

#include <memory>
#include <vector>

#include "src/common/span.h"
#include "src/common/status.h"
#include "src/db/database.h"
#include "src/fwd/extender.h"
#include "src/fwd/kernel.h"
#include "src/fwd/model.h"
#include "src/fwd/trainer.h"
#include "src/store/sink.h"

namespace stedb::fwd {

/// High-level facade over the FoRWaRD pipeline: static training + dynamic
/// extension with cached walk distributions.
///
///   auto fwd = ForwardEmbedder::TrainStatic(&db, rel, excluded, config);
///   ... insert new facts into db ...
///   fwd->ExtendToFacts(new_fact_ids);     // embeds new facts of `rel`
///   la::Vector v = fwd->Embed(f).value();
///
/// The database must outlive the embedder. Facts of relations other than
/// the embedded one need no embedding (paper: only the prediction relation
/// is embedded); they influence new embeddings through the walks alone.
class ForwardEmbedder {
 public:
  /// Runs the static phase. When `kernels` is null the paper's defaults are
  /// used (Gaussian for numeric attributes, equality otherwise).
  static Result<ForwardEmbedder> TrainStatic(
      const db::Database* database, db::RelationId rel,
      const AttrKeySet& excluded, ForwardConfig config,
      std::shared_ptr<const KernelRegistry> kernels = nullptr);

  /// Extends the embedding to every fact of the embedded relation in
  /// `new_facts` (facts of other relations are ignored). In all-at-once
  /// mode (config.recompute_old_paths) the old-distribution cache is
  /// dropped first. The batch's per-fact solves run in parallel
  /// (`config.threads` wide) against the model as of batch entry, with
  /// bit-identical results at any thread count; solutions land in
  /// fact-id order.
  Status ExtendToFacts(const std::vector<db::FactId>& new_facts);

  /// φ(f); NotFound for facts never embedded.
  Result<la::Vector> Embed(db::FactId f) const { return model_.Embed(f); }

  /// Batch read: fills `out` (facts.size() x dim()) with one φ row per
  /// requested fact. Large batches fan out with ParallelFor
  /// (`config.threads` wide); bytes are identical at any thread count.
  /// NotFound when any fact was never embedded, InvalidArgument on a
  /// shape mismatch; `out` is unspecified after an error.
  Status EmbedBatch(Span<const db::FactId> facts, la::MatrixView out) const;

  /// Durability hook: called once per newly extended fact with the final
  /// φ(f_new) (e.g. store::EmbeddingStore::MakeSink()), in fact-id order
  /// within each ExtendToFacts batch. A failing sink fails ExtendToFacts,
  /// but the unjournaled facts are retried on the next call — the journal
  /// eventually covers every vector the model serves. Pass an empty
  /// function to detach (attaching a sink resets the retry queue: a new
  /// journal starts from a full snapshot of the current model).
  void set_extension_sink(store::EmbeddingSink sink) {
    sink_ = std::move(sink);
    pending_journal_.clear();
  }

  const ForwardModel& model() const { return model_; }
  const KernelRegistry& kernels() const { return *kernels_; }
  db::RelationId relation() const { return model_.relation(); }
  size_t dim() const { return model_.dim(); }

 private:
  ForwardEmbedder(const db::Database* database,
                  std::shared_ptr<const KernelRegistry> kernels,
                  ForwardConfig config, ForwardModel model);

  const db::Database* db_;
  std::shared_ptr<const KernelRegistry> kernels_;
  ForwardConfig config_;
  ForwardModel model_;
  ForwardExtender extender_;
  Rng rng_;
  store::EmbeddingSink sink_;
  /// Facts embedded while a sink was attached but not yet successfully
  /// journaled (a failing sink or a mid-batch extension error leaves
  /// entries here); flushed, sorted, by the next ExtendToFacts.
  std::vector<db::FactId> pending_journal_;
};

}  // namespace stedb::fwd

#endif  // STEDB_FWD_FORWARD_H_
