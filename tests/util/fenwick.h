// Fenwick (binary indexed) tree over a fixed-size array of integer counts.
//
// Test-only reference for the LRU stack-distance tracker (Bennett–Kruskal
// algorithm): one slot per access timestamp, prefix sums give "number of
// distinct pages referenced since time t" in O(log n). The tracker itself
// runs on util::CounterTree; counter_tree_test checks it against this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "jpm/util/arena.h"
#include "jpm/util/check.h"
#include "jpm/util/prefetch.h"

namespace jpm {

class FenwickTree {
 public:
  FenwickTree() = default;
  explicit FenwickTree(std::size_t size) : tree_(size + 1, 0) {}
  // Arena-backed node storage (util/arena.h): the tree then lives next to
  // the rest of the hot-path working set. Capacity only ever grows, so the
  // arena waste from resizes is geometrically bounded.
  FenwickTree(std::size_t size, util::Arena* arena)
      : tree_(size + 1, 0, util::ArenaAllocator<std::int64_t>(arena)) {}

  std::size_t size() const { return tree_.empty() ? 0 : tree_.size() - 1; }

  void reset(std::size_t size) { tree_.assign(size + 1, 0); }

  // Resets to `size` positions with positions [0, ones) holding 1 and the
  // rest 0 — the state after `ones` consecutive add(i, +1) calls, built in
  // O(size) instead of O(ones log size). Node k (1-indexed) covers the
  // (k & -k) positions ending at k, so its value is the overlap of that
  // range with the ones-prefix.
  void reset_ones_prefix(std::size_t size, std::size_t ones) {
    JPM_DCHECK(ones <= size);
    tree_.resize(size + 1);
    tree_[0] = 0;
    for (std::size_t k = 1; k <= size; ++k) {
      const std::size_t lo = k - (k & (~k + 1));  // range is (lo, k]
      const std::size_t hi_ones = k < ones ? k : ones;
      tree_[k] = lo < hi_ones ? static_cast<std::int64_t>(hi_ones - lo) : 0;
    }
  }

  // Hints the first nodes of position i's add/prefix chains into cache.
  // Advisory only; out-of-range positions are ignored, so callers may pass
  // predicted future positions.
  void prefetch(std::size_t i) const {
    const std::size_t k = i + 1;
    if (k >= tree_.size()) return;
    util::prefetch_read(&tree_[k]);
    // Second chain level: the add chain ascends to k + (k & -k), the prefix
    // chain descends to k - (k & -k); one covers the other's line often
    // enough that hinting both low levels is what pays.
    const std::size_t up = k + (k & (~k + 1));
    if (up < tree_.size()) util::prefetch_read(&tree_[up]);
  }

  // Adds delta at 0-based position i.
  void add(std::size_t i, std::int64_t delta) {
    JPM_DCHECK(i < size());
    for (std::size_t k = i + 1; k < tree_.size(); k += k & (~k + 1)) {
      tree_[k] += delta;
    }
  }

  // Sum of positions [0, i] (0-based, inclusive).
  std::int64_t prefix_sum(std::size_t i) const {
    JPM_DCHECK(i < size());
    std::int64_t s = 0;
    for (std::size_t k = i + 1; k > 0; k -= k & (~k + 1)) s += tree_[k];
    return s;
  }

  // Sum over [lo, hi] inclusive; lo > hi yields 0.
  std::int64_t range_sum(std::size_t lo, std::size_t hi) const {
    if (lo > hi) return 0;
    std::int64_t s = prefix_sum(hi);
    if (lo > 0) s -= prefix_sum(lo - 1);
    return s;
  }

  std::int64_t total() const { return size() == 0 ? 0 : prefix_sum(size() - 1); }

 private:
  std::vector<std::int64_t, util::ArenaAllocator<std::int64_t>> tree_;
};

}  // namespace jpm
