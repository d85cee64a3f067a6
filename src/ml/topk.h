#ifndef STEDB_ML_TOPK_H_
#define STEDB_ML_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace stedb::ml {

/// The deterministic hit order every top-k surface in this codebase uses:
/// descending score, ascending fact id on ties. Works for any hit type
/// with `.score` and `.fact` members (api::ServingSession::Scored).
template <typename Hit>
struct HitBetter {
  bool operator()(const Hit& a, const Hit& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.fact < b.fact;
  }
};

/// Bounded k-element selector: Push() streams candidates, Take() returns
/// the k best in HitBetter order. O(n log k) and k slots of memory versus
/// the full-sort scan's O(n log n) / n slots — the exact-path counterpart
/// of the ANN index, and the small-n fallback that stays the recall
/// oracle. Selection is a pure function of the HitBetter total order, so
/// results are deterministic for any push order of distinct hits.
template <typename Hit>
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) {}

  void Push(const Hit& hit) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(hit);
      std::push_heap(heap_.begin(), heap_.end(), better_);
      return;
    }
    // The comparator makes the heap top the *worst* kept hit; replace it
    // only when the candidate beats it.
    if (better_(hit, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), better_);
      heap_.back() = hit;
      std::push_heap(heap_.begin(), heap_.end(), better_);
    }
  }

  size_t size() const { return heap_.size(); }

  /// Consumes the selector and returns the kept hits, best first.
  std::vector<Hit> Take() && {
    std::sort_heap(heap_.begin(), heap_.end(), better_);
    return std::move(heap_);
  }

 private:
  size_t k_;
  HitBetter<Hit> better_;
  std::vector<Hit> heap_;
};

}  // namespace stedb::ml

#endif  // STEDB_ML_TOPK_H_
