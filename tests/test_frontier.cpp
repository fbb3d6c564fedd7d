// Tests for BatchFrontier (2-bit frontier + visited, paper §3.5 / Fig. 6)
// and LevelValueStore (dynamic per-level allocation, paper §3.3).
#include <gtest/gtest.h>

#include <vector>

#include "query/frontier.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

TEST(BatchFrontier, SeedSetsFrontierAndVisited) {
  BatchFrontier bf(8, 4);
  bf.seed(3, 1);
  EXPECT_TRUE(bf.frontier().test(3, 1));
  EXPECT_TRUE(bf.visited().test(3, 1));
  EXPECT_FALSE(bf.next().test(3, 1));
  EXPECT_FALSE(bf.frontier().test(3, 0));
}

TEST(BatchFrontier, DiscoverRespectsVisited) {
  BatchFrontier bf(4, 2);
  bf.seed(0, 0);  // vertex 0 visited by query 0
  Word bits[1] = {0b11};  // both queries try to discover vertex 0
  bf.discover(0, bits);
  // Query 0 already visited vertex 0 -> only query 1 lands in next.
  EXPECT_FALSE(bf.next().test(0, 0));
  EXPECT_TRUE(bf.next().test(0, 1));
  EXPECT_TRUE(bf.visited().test(0, 1));
}

TEST(BatchFrontier, DiscoverIsIdempotent) {
  BatchFrontier bf(4, 2);
  Word bits[1] = {0b01};
  bf.discover(2, bits);
  bf.discover(2, bits);
  EXPECT_EQ(bf.next().count(), 1u);
  EXPECT_EQ(bf.visited().count(), 1u);
}

TEST(BatchFrontier, AdvanceSwapsAndReportsActivity) {
  BatchFrontier bf(4, 2);
  Word bits[1] = {0b10};
  bf.discover(1, bits);
  EXPECT_TRUE(bf.advance());
  EXPECT_TRUE(bf.frontier().test(1, 1));
  EXPECT_FALSE(bf.next().test(1, 1));
  // Nothing new discovered -> next advance reports empty.
  EXPECT_FALSE(bf.advance());
}

TEST(BatchFrontier, EmptyFrontierAdvanceReportsInactive) {
  // A frontier with no discoveries at all: advance() must report inactive
  // immediately and stay inactive however often it is called, without
  // resurrecting stale bits.
  BatchFrontier bf(16, 3);
  EXPECT_FALSE(bf.advance());
  EXPECT_FALSE(bf.advance());
  for (std::size_t v = 0; v < bf.num_vertices(); ++v) {
    EXPECT_FALSE(bf.frontier().row_any(v));
    EXPECT_FALSE(bf.next().row_any(v));
  }
  // Seeding alone populates frontier, not next: the following advance
  // rotates the (empty) next plane in and reports inactive.
  bf.seed(5, 1);
  EXPECT_TRUE(bf.frontier().test(5, 1));
  EXPECT_FALSE(bf.advance());
  EXPECT_FALSE(bf.frontier().test(5, 1));  // rotated out
  EXPECT_TRUE(bf.visited().test(5, 1));    // visited survives rotation
}

TEST(BatchFrontier, LevelRotationKeepsPlanesDisjointOverManyLevels) {
  // Simulate a 1 -> 2 -> 4 -> ... discovery cascade and check the
  // frontier/next/visited invariants after every rotation:
  //   * next is empty right after advance(),
  //   * the new frontier is exactly the previous level's discoveries,
  //   * visited accumulates monotonically and re-discovery never re-queues.
  const std::size_t n = 64;
  BatchFrontier bf(n, 2);
  bf.seed(0, 0);
  bf.seed(0, 1);

  std::size_t level_begin = 0, level_width = 1;
  std::uint64_t expected_visited = 2;  // both queries at vertex 0
  for (int level = 0; level < 4; ++level) {
    // Each frontier vertex "discovers" the next 2*width vertices.
    Word both[1] = {0b11};
    const std::size_t next_begin = level_begin + level_width;
    const std::size_t next_width = 2 * level_width;
    for (std::size_t v = next_begin; v < next_begin + next_width; ++v) {
      bf.discover(v, both);
      bf.discover(v, both);  // duplicate discovery must be a no-op
    }
    // Re-discovering an already-visited vertex must not re-enter next.
    bf.discover(level_begin, both);
    EXPECT_FALSE(bf.next().test(level_begin, 0));

    expected_visited += 2 * next_width;
    EXPECT_TRUE(bf.advance());
    EXPECT_EQ(bf.visited().count(), expected_visited);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_FALSE(bf.next().row_any(v)) << "next not cleared at v=" << v;
      const bool in_frontier =
          v >= next_begin && v < next_begin + next_width;
      EXPECT_EQ(bf.frontier().test(v, 0), in_frontier) << "v=" << v;
      EXPECT_EQ(bf.frontier().test(v, 1), in_frontier) << "v=" << v;
    }
    level_begin = next_begin;
    level_width = next_width;
  }
  // No new discoveries: the cascade dies in one rotation.
  EXPECT_FALSE(bf.advance());
}

TEST(BatchFrontier, FigureSixWalkthrough) {
  // Paper Fig. 6: 10 vertices, two queries from sources 0 and 4.
  BatchFrontier bf(10, 2);
  bf.seed(0, 0);
  bf.seed(4, 1);
  EXPECT_TRUE(bf.frontier().test(0, 0));
  EXPECT_TRUE(bf.frontier().test(4, 1));
  // Hop 1: suppose 0 -> {1, 2} and 4 -> {2, 7}. Vertex 2 is shared: one
  // discover call advances both queries.
  Word q0[1] = {0b01}, q1[1] = {0b10}, both[1] = {0b11};
  bf.discover(1, q0);
  bf.discover(2, both);
  bf.discover(7, q1);
  EXPECT_TRUE(bf.advance());
  EXPECT_TRUE(bf.frontier().test(2, 0));
  EXPECT_TRUE(bf.frontier().test(2, 1));  // shared vertex, single pass
  EXPECT_TRUE(bf.visited().test(7, 1));
  EXPECT_FALSE(bf.visited().test(7, 0));
}

TEST(BatchFrontier, MemoryBytesScalesWithQueries) {
  BatchFrontier small(1000, 64);
  BatchFrontier large(1000, 512);
  EXPECT_EQ(small.memory_bytes() * 8, large.memory_bytes());
}

TEST(LevelValueStore, KeepsOnlyTwoLevels) {
  LevelValueStore<Depth> store;
  store.record(1, 1);
  store.record(2, 1);
  store.advance_level();
  store.record(3, 2);
  EXPECT_EQ(store.previous().size(), 2u);
  EXPECT_EQ(store.current().size(), 1u);
  EXPECT_EQ(store.live_entries(), 3u);
  store.advance_level();
  // The level-1 entries are gone: dynamic deallocation of older levels.
  EXPECT_EQ(store.previous().size(), 1u);
  EXPECT_EQ(store.current().size(), 0u);
  EXPECT_EQ(store.level(), 2u);
}

TEST(LevelValueStore, ResetClearsEverything) {
  LevelValueStore<int> store;
  store.record(5, 42);
  store.advance_level();
  store.reset();
  EXPECT_EQ(store.live_entries(), 0u);
  EXPECT_EQ(store.level(), 0u);
}

// Differential test for the O(words) mask-based advance(): against the
// scanning advance() it must return the same activity answer and leave
// bit-identical planes, for frontiers with activity in different words,
// rows, and none at all.
TEST(BatchFrontier, MaskAdvanceMatchesScanningAdvance) {
  const std::size_t n = 96;
  const std::size_t queries = 130;  // 3 words per row, last one partial
  struct Discovery {
    std::size_t v;
    Word bits[3];
  };
  const std::vector<std::vector<Discovery>> scenarios = {
      {},                                  // nothing discovered
      {{7, {0b1, 0, 0}}},                  // single bit, first word
      {{95, {0, 0, Word{1} << 1}}},        // last row, last word
      {{3, {0b1010, 0, 0}}, {64, {0, ~Word{0}, 0}}, {65, {1, 1, 1}}},
  };
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    BatchFrontier masked(n, queries);
    BatchFrontier scanned(n, queries);
    masked.seed(0, 0);
    scanned.seed(0, 0);
    for (const Discovery& d : scenarios[s]) {
      masked.discover_next(d.v, d.bits, /*shared=*/true);
      scanned.discover_next(d.v, d.bits, /*shared=*/false);
    }
    std::vector<Word> mask(masked.words_per_row(), 0);
    masked.commit_rows(0, n, mask.data());
    std::vector<Word> scan_mask(scanned.words_per_row(), 0);
    scanned.commit_rows(0, n, scan_mask.data());

    const bool active_masked = masked.advance(mask.data());
    const bool active_scanned = scanned.advance();
    EXPECT_EQ(active_masked, active_scanned) << "scenario " << s;
    EXPECT_EQ(active_masked, !scenarios[s].empty()) << "scenario " << s;
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t q = 0; q < queries; ++q) {
        ASSERT_EQ(masked.frontier().test(v, q), scanned.frontier().test(v, q))
            << "scenario " << s << " frontier v=" << v << " q=" << q;
        ASSERT_EQ(masked.next().test(v, q), scanned.next().test(v, q))
            << "scenario " << s << " next v=" << v << " q=" << q;
        ASSERT_EQ(masked.visited().test(v, q), scanned.visited().test(v, q))
            << "scenario " << s << " visited v=" << v << " q=" << q;
      }
    }
  }
}

TEST(BatchFrontier, ReleaseReturnsMemory) {
  BatchFrontier bf(4096, 256);
  const std::size_t burst = bf.memory_bytes();
  EXPECT_GT(burst, 0u);
  bf.release();
  EXPECT_EQ(bf.memory_bytes(), 0u);
  EXPECT_EQ(bf.num_vertices(), 0u);
  // Reassignment restores a working frontier.
  bf = BatchFrontier(8, 2);
  bf.seed(1, 1);
  EXPECT_TRUE(bf.visited().test(1, 1));
  EXPECT_GT(bf.memory_bytes(), 0u);
  EXPECT_LT(bf.memory_bytes(), burst);
}

TEST(LevelValueStore, MemoryBytesCountsCapacityNotSize) {
  LevelValueStore<Depth> store;
  for (std::size_t i = 0; i < 1000; ++i) {
    store.record(static_cast<VertexId>(i), 0);
  }
  store.advance_level();  // previous_: the 1000-entry burst
  for (std::size_t i = 0; i < 300; ++i) {
    store.record(static_cast<VertexId>(i), 0);
  }
  // The recycled burst buffer (capacity >= 1000) becomes current_ and is
  // retained: 300 live entries justify it under the 4x slack rule.
  store.advance_level();
  EXPECT_EQ(store.live_entries(), 300u);
  // Size-based accounting would claim 300 entries; the reserved capacity
  // (>= 300 previous + >= 1000 recycled) must be what's reported.
  EXPECT_GE(store.memory_bytes(),
            1300 * sizeof(LevelValueStore<Depth>::Entry));
}

TEST(LevelValueStore, BurstThenIdleReturnsMemory) {
  LevelValueStore<Depth> store;
  // Burst: one very wide level.
  for (std::size_t i = 0; i < 100000; ++i) {
    store.record(static_cast<VertexId>(i), 0);
  }
  store.advance_level();
  const std::size_t at_burst = store.memory_bytes();
  ASSERT_GE(at_burst, 100000 * sizeof(LevelValueStore<Depth>::Entry));

  // Idle tail: tiny levels. The shrink policy must release the burst
  // capacity instead of pinning it forever.
  for (int level = 0; level < 3; ++level) {
    store.record(0, 0);
    store.advance_level();
  }
  EXPECT_LT(store.memory_bytes(), at_burst / 100);

  // reset(release_capacity=true) drops everything.
  store.reset(/*release_capacity=*/true);
  EXPECT_EQ(store.memory_bytes(), 0u);
  EXPECT_EQ(store.level(), 0u);
}

TEST(LevelValueStore, SteadyStateKeepsCapacityAcrossLevels) {
  // The shrink policy must NOT thrash the steady state: levels of similar
  // width reuse the recycled buffer without reallocating.
  LevelValueStore<Depth> store;
  for (int warm = 0; warm < 2; ++warm) {
    for (std::size_t i = 0; i < 500; ++i) {
      store.record(static_cast<VertexId>(i), 0);
    }
    store.advance_level();
  }
  const std::size_t warm_bytes = store.memory_bytes();
  for (int level = 0; level < 5; ++level) {
    for (std::size_t i = 0; i < 500; ++i) {
      store.record(static_cast<VertexId>(i), 0);
    }
    store.advance_level();
    EXPECT_EQ(store.memory_bytes(), warm_bytes) << "level " << level;
  }
}

TEST(LevelValueStore, MemoryIsBoundedByWidestTwoLevels) {
  // A dense per-vertex store for V vertices costs V entries for the whole
  // query; the level store peaks at the two widest adjacent levels.
  LevelValueStore<Depth> store;
  std::size_t peak = 0;
  const std::size_t levels[] = {1, 10, 100, 50, 5};
  for (std::size_t width : levels) {
    for (std::size_t i = 0; i < width; ++i) {
      store.record(static_cast<VertexId>(i), 0);
    }
    peak = std::max(peak, store.live_entries());
    store.advance_level();
  }
  EXPECT_EQ(peak, 150u);  // 100 + 50, not 166 (the dense total)
}

// ---------------------------------------------------------------------------
// Bottom-up (pull) kernel and the frontier density/queue machinery backing
// the direction-optimizing heuristic (DESIGN.md §12).

/// Random plane seeding shared by the pull/occupancy/queue property tests:
/// roughly `fill` of the rows get a random frontier pattern.
void seed_random_frontier(BatchFrontier& bf, Xoshiro256& rng, double fill) {
  for (std::size_t v = 0; v < bf.num_vertices(); ++v) {
    if (rng.next_double() >= fill) continue;
    for (std::size_t q = 0; q < bf.num_queries(); ++q) {
      if (rng.next_bounded(3) == 0) bf.frontier().set(v, q);
    }
  }
}

TEST(PullRow, MatchesPushDiscoverAtWordBoundaryWidths) {
  // The CSC word-AND kernel must produce exactly the bits push's discover
  // would, for batch widths straddling the 64-bit word boundary.
  for (const std::size_t Q : {std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{512}}) {
    SCOPED_TRACE("Q=" + std::to_string(Q));
    Xoshiro256 rng(Q * 7 + 1);
    const std::size_t n = 16;
    const std::vector<VertexId> parents{2, 5, 7, 11};

    BatchFrontier pull(n, Q);
    seed_random_frontier(pull, rng, 0.8);
    // Some pre-visited bits on the target row so want != expand.
    for (std::size_t q = 0; q < Q; q += 3) pull.visited().set(0, q);
    BatchFrontier push(n, Q);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t q = 0; q < Q; ++q) {
        if (pull.frontier().test(v, q)) push.frontier().set(v, q);
        if (pull.visited().test(v, q)) push.visited().set(v, q);
      }
    }

    const std::size_t W = pull.words_per_row();
    std::vector<Word> expand(W, ~Word{0});
    pull.pull_row(0, expand.data(), parents, 0,
                  static_cast<VertexId>(n));
    // Push reference: each parent in the frontier discovers row 0 with its
    // own frontier bits (out-edge parent -> 0).
    for (VertexId p : parents) {
      push.discover(0, push.frontier().row(p));
    }
    for (std::size_t w = 0; w < W; ++w) {
      EXPECT_EQ(pull.next().row(0)[w], push.next().row(0)[w])
          << "word " << w;
    }
  }
}

TEST(PullRow, EmptyFrontierFindsNothing) {
  BatchFrontier bf(8, 64);
  const std::vector<VertexId> parents{1, 2, 3};
  std::vector<Word> expand(bf.words_per_row(), ~Word{0});
  // No parent is in the frontier: every parent is examined (nothing ever
  // retires a wanted bit) and the next row stays empty.
  EXPECT_EQ(bf.pull_row(0, expand.data(), parents, 0, 8), parents.size());
  EXPECT_FALSE(bf.next().row_any(0));
}

TEST(PullRow, FullyVisitedRowExaminesNoParents) {
  BatchFrontier bf(8, 64);
  for (std::size_t q = 0; q < 64; ++q) bf.visited().set(0, q);
  const std::vector<VertexId> parents{1, 2, 3};
  std::vector<Word> expand(bf.words_per_row(), ~Word{0});
  EXPECT_EQ(bf.pull_row(0, expand.data(), parents, 0, 8), 0u);
  EXPECT_FALSE(bf.next().row_any(0));
}

TEST(PullRow, EarlyExitOnceEveryWantedBitFound) {
  BatchFrontier bf(8, 64);
  // Parent 1 supplies every query; parents 2..4 must never be examined.
  for (std::size_t q = 0; q < 64; ++q) bf.frontier().set(1, q);
  const std::vector<VertexId> parents{1, 2, 3, 4};
  std::vector<Word> expand(bf.words_per_row(), ~Word{0});
  EXPECT_EQ(bf.pull_row(0, expand.data(), parents, 0, 8), 1u);
  for (std::size_t q = 0; q < 64; ++q) EXPECT_TRUE(bf.next().test(0, q));
}

TEST(PullRow, ParentWindowRestrictsToLocalRange) {
  // Distributed pull passes the local vertex range: parents outside it are
  // someone else's partition and must be skipped (their contribution
  // arrives via the cross-partition push instead).
  BatchFrontier bf(4, 8);  // local rows 4..7 of a 12-vertex global space
  bf.frontier().set(1, 3);  // global vertex 5
  const std::vector<VertexId> parents{0, 2, 5, 9, 11};  // global ids, sorted
  std::vector<Word> expand(bf.words_per_row(), ~Word{0});
  // Only parent 5 falls in [4, 8); rows are locally indexed (5 - 4 = 1).
  EXPECT_EQ(bf.pull_row(2, expand.data(), parents, 4, 8), 1u);
  EXPECT_TRUE(bf.next().test(2, 3));
  EXPECT_FALSE(bf.next().test(2, 0));
}

TEST(PullRow, ExpandMaskGatesExhaustedQueries) {
  BatchFrontier bf(8, 64);
  for (std::size_t q = 0; q < 64; ++q) bf.frontier().set(1, q);
  const std::vector<VertexId> parents{1};
  // Only even queries still have hops left.
  std::vector<Word> expand(bf.words_per_row(), 0);
  for (std::size_t q = 0; q < 64; q += 2) {
    expand[q / kWordBits] |= Word{1} << (q % kWordBits);
  }
  bf.pull_row(0, expand.data(), parents, 0, 8);
  for (std::size_t q = 0; q < 64; ++q) {
    EXPECT_EQ(bf.next().test(0, q), q % 2 == 0) << "query " << q;
  }
}

TEST(FrontierQueue, RoundTripIsExactInverse) {
  // Property: bitmap -> queue -> bitmap reproduces the original frontier
  // plane bit-for-bit, and the queue lists exactly the active rows
  // ascending (the push<->pull frontier conversion contract).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    const std::size_t n = 1 + rng.next_bounded(200);
    const std::size_t Q = 1 + rng.next_bounded(512);
    BatchFrontier src(n, Q);
    seed_random_frontier(src, rng, 0.4);

    std::vector<VertexId> queue;
    const std::size_t returned = src.frontier_to_queue(queue);
    ASSERT_EQ(returned, queue.size());
    for (std::size_t i = 0; i + 1 < queue.size(); ++i) {
      ASSERT_LT(queue[i], queue[i + 1]) << "queue must ascend";
    }
    for (VertexId v : queue) ASSERT_TRUE(src.frontier().row_any(v));
    std::size_t active = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (src.frontier().row_any(v)) ++active;
    }
    ASSERT_EQ(queue.size(), active);

    BatchFrontier dst(n, Q);
    dst.frontier_from_queue(queue, src.frontier());
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t w = 0; w < src.words_per_row(); ++w) {
        ASSERT_EQ(dst.frontier().row(v)[w], src.frontier().row(v)[w])
            << "seed " << seed << " row " << v;
      }
    }
  }
}

TEST(FrontierOccupancyTest, RecomputeMatchesPerBitCount) {
  // Regression for the density accessor: the popcount-based occupancy must
  // equal a naive per-bit recount, including the degree-weighted scout sum.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256 rng(seed * 13);
    const std::size_t n = 1 + rng.next_bounded(150);
    const std::size_t Q = 1 + rng.next_bounded(200);
    BatchFrontier bf(n, Q);
    seed_random_frontier(bf, rng, 0.5);
    std::vector<EdgeIndex> degrees(n);
    for (auto& d : degrees) d = static_cast<EdgeIndex>(rng.next_bounded(40));

    std::uint64_t rows = 0, bits = 0, scout = 0;
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t row_bits = 0;
      for (std::size_t q = 0; q < Q; ++q) {
        if (bf.frontier().test(v, q)) ++row_bits;
      }
      if (row_bits == 0) continue;
      ++rows;
      bits += row_bits;
      scout += degrees[v];
    }

    const FrontierOccupancy occ = bf.frontier_occupancy(degrees);
    EXPECT_EQ(occ.active_rows, rows) << "seed " << seed;
    EXPECT_EQ(occ.active_bits, bits) << "seed " << seed;
    EXPECT_EQ(occ.scout_edges, scout) << "seed " << seed;
  }
}

TEST(FrontierOccupancyTest, CommitCarriedEqualsRecomputed) {
  // The engines trust commit_rows' by-product occupancy instead of
  // rescanning; after advance() it must describe the new frontier exactly
  // as frontier_occupancy() would (this equality is what makes the
  // direction decision replay bit-exact from a restored checkpoint, where
  // only the recompute is available).
  Xoshiro256 rng(99);
  const std::size_t n = 120;
  const std::size_t Q = 96;
  BatchFrontier bf(n, Q);
  std::vector<EdgeIndex> degrees(n);
  for (auto& d : degrees) d = static_cast<EdgeIndex>(rng.next_bounded(17));
  // Random discoveries into the next plane.
  std::vector<Word> bits(bf.words_per_row());
  for (std::size_t v = 0; v < n; v += 1 + rng.next_bounded(4)) {
    for (auto& w : bits) w = rng.next();
    bf.discover(v, bits.data());
  }

  std::vector<Word> nonempty(bf.words_per_row(), 0);
  std::vector<VertexId> active;
  const FrontierOccupancy carried =
      bf.commit_rows(0, n, nonempty.data(), degrees, &active);
  bf.advance(nonempty.data());

  const FrontierOccupancy recomputed = bf.frontier_occupancy(degrees);
  EXPECT_EQ(carried.active_rows, recomputed.active_rows);
  EXPECT_EQ(carried.active_bits, recomputed.active_bits);
  EXPECT_EQ(carried.scout_edges, recomputed.scout_edges);
  // And the collected active rows are the queue the next push level uses.
  std::vector<VertexId> queue;
  bf.frontier_to_queue(queue);
  EXPECT_EQ(active, queue);
}

}  // namespace
}  // namespace cgraph
