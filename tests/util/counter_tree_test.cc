// CounterTree is the wide-fanout replacement for the Fenwick tree under the
// stack-distance tracker; every count it returns must be exact. The suite
// pins the algebra three ways: small-case unit tests against hand-checked
// values, a randomized differential against FenwickTree over >1M mixed
// operations (including reset_ones_prefix rebuilds, the compaction path),
// and a tracker-level differential against a from-scratch Bennett–Kruskal
// reference built on the Fenwick tree.
#include "jpm/util/counter_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fenwick.h"
#include "jpm/cache/stack_distance.h"
#include "jpm/util/rng.h"

namespace jpm {
namespace {

TEST(CounterTreeTest, ResetOnesPrefixMatchesDefinition) {
  // Sizes straddling every structural boundary: sub-word, exact words,
  // word+1, one-c1-block edge (4096 slots = 64 words), past it (forces an
  // upper level), and deliberately non-multiples of 64.
  const std::size_t sizes[] = {1, 5, 63, 64, 65, 127, 128, 1000,
                               4095, 4096, 4097, 70000};
  for (std::size_t size : sizes) {
    const std::size_t ones_choices[] = {0, 1, size / 2, size - 1, size};
    for (std::size_t ones : ones_choices) {
      if (ones > size) continue;
      SCOPED_TRACE(testing::Message() << "size=" << size << " ones=" << ones);
      CounterTree t;
      t.reset_ones_prefix(size, ones);
      EXPECT_EQ(t.size(), size);
      EXPECT_EQ(t.total(), ones);
      // Sampled positions, always including the edges.
      for (std::size_t i = 0; i < size; i = i < 70 ? i + 1 : i * 2 + 1) {
        EXPECT_EQ(t.test(i), i < ones);
        EXPECT_EQ(t.prefix_ones(i), std::min<std::uint64_t>(i + 1, ones));
      }
      EXPECT_EQ(t.test(size - 1), size - 1 < ones);
      EXPECT_EQ(t.prefix_ones(size - 1), ones);
    }
  }
}

TEST(CounterTreeTest, SetAndRankAtWordEdges) {
  CounterTree t(256);
  // Bits on both sides of every u64 boundary plus the block edges.
  const std::size_t marks[] = {0, 1, 62, 63, 64, 65, 127, 128, 191, 255};
  for (std::size_t i : marks) t.set(i);
  EXPECT_EQ(t.total(), 10u);
  std::uint64_t expect = 0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < 256; ++i) {
    if (next < 10 && marks[next] == i) {
      ++expect;
      ++next;
    }
    EXPECT_EQ(t.prefix_ones(i), expect) << "i=" << i;
  }
  // rank_and_clear returns the inclusive rank and unmarks.
  EXPECT_EQ(t.rank_and_clear(64), 5u);
  EXPECT_FALSE(t.test(64));
  EXPECT_EQ(t.total(), 9u);
  EXPECT_EQ(t.prefix_ones(64), 4u);
}

TEST(CounterTreeTest, RankMoveEqualsClearPlusSet) {
  Rng rng(11);
  const std::size_t size = 8192;
  CounterTree fused(size);
  CounterTree split(size);
  std::vector<std::size_t> marked;
  for (std::size_t i = 0; i < 512; ++i) {
    fused.set(i);
    split.set(i);
    marked.push_back(i);
  }
  std::size_t append = 512;
  while (append < size) {
    const std::size_t pick = rng.uniform_index(marked.size());
    const std::size_t from = marked[pick];
    const std::size_t to = append++;
    EXPECT_EQ(fused.rank_move(from, to), split.rank_and_clear(from));
    split.set(to);
    marked[pick] = to;
    EXPECT_EQ(fused.total(), split.total());
  }
  for (std::size_t i = 0; i < size; i += 7) {
    ASSERT_EQ(fused.prefix_ones(i), split.prefix_ones(i)) << "i=" << i;
  }
}

TEST(CounterTreeTest, ForEachSetVisitsMarkedAscending) {
  Rng rng(23);
  CounterTree t(10000);
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < 10000; ++i) {
    if (rng.chance(0.3)) {
      t.set(i);
      expected.push_back(i);
    }
  }
  std::vector<std::size_t> seen;
  t.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

// The randomized differential: every public mutation and query against the
// Fenwick tree it replaced, in the 0/1-marks regime the tracker uses, with
// periodic reset_ones_prefix rebuilds mimicking compaction. >1M operations.
TEST(CounterTreeTest, MillionOpDifferentialAgainstFenwick) {
  Rng rng(20260808);
  std::size_t size = 32768;
  CounterTree ct(size);
  FenwickTree fen(size);
  std::vector<std::uint32_t> marked;  // positions currently set
  std::size_t append = 0;
  std::uint64_t ops = 0;

  auto rebuild = [&](std::size_t ones) {
    // Compaction: survivors renumbered to a ones-prefix in a fresh tree.
    ct.reset_ones_prefix(size, ones);
    fen.reset_ones_prefix(size, ones);
    marked.clear();
    for (std::size_t i = 0; i < ones; ++i) {
      marked.push_back(static_cast<std::uint32_t>(i));
    }
    append = ones;
  };

  while (ops < 1'200'000) {
    if (append == size) {
      rebuild(marked.size());
      ++ops;
      continue;
    }
    const double roll = rng.uniform();
    if (roll < 0.45 && !marked.empty()) {
      // rank_move: the tracker's re-access (to = append end).
      const std::size_t pick = rng.uniform_index(marked.size());
      const std::size_t from = marked[pick];
      const std::size_t to = append++;
      const std::int64_t expect = fen.prefix_sum(from);
      fen.add(from, -1);
      fen.add(to, +1);
      ASSERT_EQ(ct.rank_move(from, to), static_cast<std::uint64_t>(expect));
      marked[pick] = static_cast<std::uint32_t>(to);
    } else if (roll < 0.6 && !marked.empty()) {
      // rank_and_clear: a mark leaves (eviction-style).
      const std::size_t pick = rng.uniform_index(marked.size());
      const std::size_t at = marked[pick];
      const std::int64_t expect = fen.prefix_sum(at);
      fen.add(at, -1);
      ASSERT_EQ(ct.rank_and_clear(at), static_cast<std::uint64_t>(expect));
      marked[pick] = marked.back();
      marked.pop_back();
    } else if (roll < 0.75) {
      // set: a cold access takes the append slot.
      const std::size_t at = append++;
      ct.set(at);
      fen.add(at, +1);
      marked.push_back(static_cast<std::uint32_t>(at));
    } else if (roll < 0.95) {
      // prefix_ones at a random position (marked or not).
      const std::size_t at = rng.uniform_index(size);
      ASSERT_EQ(ct.prefix_ones(at),
                static_cast<std::uint64_t>(fen.prefix_sum(at)));
    } else {
      // Occasional mid-stream rebuild at a random survivor count.
      rebuild(rng.uniform_index(marked.size() + 1));
    }
    ++ops;
    ASSERT_EQ(ct.total(), static_cast<std::uint64_t>(fen.total()));
  }
  EXPECT_GE(ops, 1'200'000u);
}

// From-scratch Bennett–Kruskal on the Fenwick tree: one slot per access,
// marked slot per live page, depth = live - rank(prev) + 1. Grows without
// compacting (slots sized to the op count), so it shares no code or policy
// with the production tracker beyond the algorithm itself.
class FenwickReferenceTracker {
 public:
  explicit FenwickReferenceTracker(std::size_t max_ops) : fen_(max_ops) {}

  std::uint64_t access(std::uint64_t page) {
    const std::size_t slot = next_slot_++;
    auto [it, inserted] = last_slot_.try_emplace(page, slot);
    if (inserted) {
      fen_.add(slot, +1);
      return cache::kColdAccess;
    }
    const std::size_t prev = it->second;
    const std::uint64_t rank = static_cast<std::uint64_t>(fen_.prefix_sum(prev));
    fen_.add(prev, -1);
    fen_.add(slot, +1);
    it->second = slot;
    return static_cast<std::uint64_t>(last_slot_.size()) - rank + 1;
  }

 private:
  FenwickTree fen_;
  std::unordered_map<std::uint64_t, std::size_t> last_slot_;
  std::size_t next_slot_ = 0;
};

// Tracker-level differential: >1M accesses with a hot set (high slot churn —
// hundreds of internal compactions at the tracker's 1024-slot floor ramping
// up), a mid tier, and an ever-growing cold tail, so compact() runs at many
// different live counts. Every depth must match the reference exactly.
TEST(CounterTreeTest, TrackerMillionOpDifferentialAgainstFenwickReference) {
  constexpr std::size_t kOps = 1'100'000;
  cache::StackDistanceTracker fast;
  FenwickReferenceTracker ref(kOps);
  Rng rng(424242);
  std::uint64_t next_cold = 1 << 20;
  for (std::size_t i = 0; i < kOps; ++i) {
    std::uint64_t page;
    const double roll = rng.uniform();
    if (roll < 0.55) {
      page = rng.uniform_index(64);  // hot: immediate shallow re-access
    } else if (roll < 0.9) {
      page = rng.uniform_index(20000);  // mid: deep re-access
    } else {
      page = next_cold++;  // cold: live set grows between compactions
    }
    ASSERT_EQ(fast.access(page), ref.access(page)) << "op " << i;
  }
  EXPECT_EQ(fast.total_accesses(), kOps);
}

}  // namespace
}  // namespace jpm
