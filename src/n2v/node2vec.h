#ifndef STEDB_N2V_NODE2VEC_H_
#define STEDB_N2V_NODE2VEC_H_

#include <vector>

#include "src/common/span.h"
#include "src/common/status.h"
#include "src/db/database.h"
#include "src/graph/bipartite_graph.h"
#include "src/graph/walker.h"
#include "src/la/matrix.h"
#include "src/n2v/skipgram.h"
#include "src/n2v/vocab.h"
#include "src/store/sink.h"

namespace stedb::n2v {

/// Full configuration of the Node2Vec database embedder (paper Section IV +
/// Table II defaults).
struct Node2VecConfig {
  graph::GraphOptions graph;
  graph::WalkConfig walk;
  SkipGramConfig sg;
  /// Epochs for each dynamic continuation (paper: 5).
  int dynamic_epochs = 5;
  uint64_t seed = 1;
};

/// A trained Node2Vec embedding of a database, extensible to new facts with
/// old vectors frozen (the paper's dynamic adaptation).
///
/// Usage:
///   auto emb = Node2VecEmbedding::TrainStatic(&db, config);   // static phase
///   ... insert facts into db ...
///   emb->ExtendToFacts(new_fact_ids);                          // dynamic phase
///
/// The database must outlive this object, and facts passed to ExtendToFacts
/// must already be inserted.
class Node2VecEmbedding {
 public:
  /// Runs the static phase: builds the bipartite graph over all live facts,
  /// samples the walk corpus, trains SGNS.
  static Result<Node2VecEmbedding> TrainStatic(const db::Database* database,
                                               Node2VecConfig config);

  /// Extends the embedding to newly inserted facts: grows the graph and the
  /// model, samples walks starting at the new nodes, and continues SGD with
  /// every pre-existing vector frozen. Old embeddings are provably
  /// unchanged (tested).
  Status ExtendToFacts(const std::vector<db::FactId>& new_facts);

  /// Embedding of a fact; NotFound when the fact was never embedded.
  Result<la::Vector> Embed(db::FactId f) const;

  /// Batch read: fills `out` (facts.size() x dim()) with one embedding row
  /// per requested fact; large batches fan out with ParallelFor
  /// (`config.sg.threads` wide) with byte-identical results at any thread
  /// count. NotFound when any fact has no node, InvalidArgument on a shape
  /// mismatch; `out` is unspecified after an error.
  Status EmbedBatch(Span<const db::FactId> facts, la::MatrixView out) const;

  /// Durability hook: called once per fact newly embedded by
  /// ExtendToFacts, with its final (frozen-from-now-on) vector, in
  /// fact-id order within each batch. A failing sink fails ExtendToFacts,
  /// but the unjournaled facts are retried on the next call. Pass an
  /// empty function to detach (attaching resets the retry queue).
  void set_extension_sink(store::EmbeddingSink sink) {
    sink_ = std::move(sink);
    pending_journal_.clear();
  }

  const graph::BipartiteGraph& graph() const { return graph_; }
  const SkipGramModel& model() const { return model_; }
  size_t dim() const { return model_.dim(); }

  /// Every embedded fact (all relations), ascending by fact id — the
  /// deterministic enumeration the snapshot codec serializes.
  std::vector<db::FactId> EmbeddedFacts() const;

 private:
  Node2VecEmbedding(const db::Database* database, Node2VecConfig config);

  const db::Database* db_;
  Node2VecConfig config_;
  Rng rng_;  // declared before model_: the model's init draws from it
  graph::BipartiteGraph graph_;
  NodeVocab vocab_;
  SkipGramModel model_;
  store::EmbeddingSink sink_;
  /// Facts embedded while a sink was attached but not yet successfully
  /// journaled; flushed, sorted, by the next ExtendToFacts.
  std::vector<db::FactId> pending_journal_;
};

}  // namespace stedb::n2v

#endif  // STEDB_N2V_NODE2VEC_H_
