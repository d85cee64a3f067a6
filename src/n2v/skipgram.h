#ifndef STEDB_N2V_SKIPGRAM_H_
#define STEDB_N2V_SKIPGRAM_H_

#include <vector>

#include "src/common/rng.h"
#include "src/graph/bipartite_graph.h"
#include "src/la/matrix.h"
#include "src/n2v/vocab.h"

namespace stedb::n2v {

/// Skip-gram-with-negative-sampling hyperparameters (paper Table II).
struct SkipGramConfig {
  size_t dim = 100;       ///< embedding dimension
  int window = 5;         ///< context window (symmetric)
  int negatives = 20;     ///< negative samples per positive pair
  double lr = 0.025;      ///< initial learning rate (linear decay to lr/100)
  int epochs = 10;        ///< passes over the walk corpus
  /// Worker threads for training (0 = default: STEDB_THREADS env var,
  /// else hardware concurrency). Bit-identical models at any thread count.
  int threads = 0;
};

/// Skip-gram with negative sampling (word2vec / Node2Vec objective),
/// implemented directly with per-pair SGD — no autograd dependency.
///
/// Stability support: any node may be *frozen*. Frozen nodes still
/// participate in the objective (they appear as centers, contexts and
/// negatives) but their input AND output vectors receive no gradient, which
/// is exactly the paper's dynamic adaptation: "we freeze the old nodes and
/// only update the embedding on the new nodes" (Section IV-A).
class SkipGramModel {
 public:
  SkipGramModel(size_t num_nodes, SkipGramConfig config, Rng& rng);

  /// Adds `extra` freshly (randomly) initialized nodes; existing vectors
  /// are untouched. Returns the id of the first new node.
  size_t Grow(size_t extra, Rng& rng);

  size_t num_nodes() const { return in_.rows(); }
  size_t dim() const { return config_.dim; }

  void SetFrozen(graph::NodeId n, bool frozen) { frozen_[n] = frozen; }
  bool IsFrozen(graph::NodeId n) const { return frozen_[n] != 0; }
  /// Freezes every currently existing node (used before dynamic training).
  void FreezeAll();

  /// Runs `epochs` passes of SGNS over the walks. `vocab` provides the
  /// noise distribution. Returns average loss of the final epoch.
  ///
  /// Execution model: walks are processed in small fixed-size mini-batches
  /// by `config.threads`-wide ParallelFor fan-outs. Workers first compute
  /// every pair's residuals and center gradients against batch-start
  /// vectors (each walk on its own counter-based RNG stream for windows and
  /// negatives), then the updates are applied sharded by node id — no two
  /// workers write the same embedding row, and each row's updates run in
  /// pair order. Results are bit-identical for a fixed seed at any thread
  /// count.
  double Train(const std::vector<std::vector<graph::NodeId>>& walks,
               const NodeVocab& vocab, int epochs, Rng& rng);

  /// The (input) embedding of a node.
  la::Vector Embedding(graph::NodeId n) const { return in_.Row(n); }
  const la::Matrix& embedding_matrix() const { return in_; }

  const SkipGramConfig& config() const { return config_; }

 private:
  SkipGramConfig config_;
  la::Matrix in_;   ///< input (center) vectors — the published embedding
  la::Matrix out_;  ///< output (context) vectors
  std::vector<char> frozen_;
};

}  // namespace stedb::n2v

#endif  // STEDB_N2V_SKIPGRAM_H_
