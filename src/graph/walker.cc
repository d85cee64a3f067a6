#include "src/graph/walker.h"

#include <algorithm>

#include "src/common/parallel.h"

namespace stedb::graph {

NodeId Node2VecWalker::NextNode(NodeId prev, NodeId cur, Rng& rng) const {
  const std::vector<NodeId>& nbrs = graph_->Neighbors(cur);
  if (nbrs.empty()) return kNoNode;
  if (prev == kNoNode || (config_.p == 1.0 && config_.q == 1.0)) {
    return nbrs[rng.NextIndex(nbrs.size())];
  }
  // Rejection sampling against the maximum unnormalized bias.
  const double wp = 1.0 / config_.p;  // return to prev
  const double wq = 1.0 / config_.q;  // move further away
  const double wmax = std::max({wp, 1.0, wq});
  for (int tries = 0; tries < 256; ++tries) {
    NodeId cand = nbrs[rng.NextIndex(nbrs.size())];
    double w;
    if (cand == prev) {
      w = wp;
    } else if (graph_->HasEdge(prev, cand)) {
      w = 1.0;
    } else {
      w = wq;
    }
    if (rng.NextDouble() * wmax <= w) return cand;
  }
  // Pathological bias values: fall back to uniform.
  return nbrs[rng.NextIndex(nbrs.size())];
}

std::vector<NodeId> Node2VecWalker::Walk(NodeId start, Rng& rng) const {
  std::vector<NodeId> walk;
  walk.reserve(config_.walk_length + 1);
  walk.push_back(start);
  NodeId prev = kNoNode;
  NodeId cur = start;
  for (int step = 0; step < config_.walk_length; ++step) {
    NodeId next = NextNode(prev, cur, rng);
    if (next == kNoNode) break;
    walk.push_back(next);
    prev = cur;
    cur = next;
  }
  return walk;
}

std::vector<std::vector<NodeId>> Node2VecWalker::WalksFrom(
    const std::vector<NodeId>& starts, Rng& rng) const {
  const size_t reps = static_cast<size_t>(std::max(config_.walks_per_node, 0));
  std::vector<std::vector<NodeId>> walks(starts.size() * reps);
  if (walks.empty()) return walks;
  // One serial draw advances the caller's stream; every walk then forks its
  // own counter-based stream off that root, keyed by corpus position
  // (rep-major, matching the historical corpus layout).
  const Rng root = rng.Fork();
  ParallelFor(config_.threads, walks.size(), [&](size_t i) {
    Rng walk_rng = root.Fork(i);
    walks[i] = Walk(starts[i % starts.size()], walk_rng);
  });
  return walks;
}

std::vector<std::vector<NodeId>> Node2VecWalker::AllWalks(Rng& rng) const {
  std::vector<NodeId> starts(graph_->num_nodes());
  for (size_t i = 0; i < starts.size(); ++i) {
    starts[i] = static_cast<NodeId>(i);
  }
  return WalksFrom(starts, rng);
}

}  // namespace stedb::graph
