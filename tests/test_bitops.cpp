// Unit tests for the bit-level primitives behind the MS-BFS engine.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/bitops.hpp"

namespace cgraph {
namespace {

TEST(WordsForBits, Boundaries) {
  EXPECT_EQ(words_for_bits(0), 0u);
  EXPECT_EQ(words_for_bits(1), 1u);
  EXPECT_EQ(words_for_bits(64), 1u);
  EXPECT_EQ(words_for_bits(65), 2u);
  EXPECT_EQ(words_for_bits(512), 8u);
}

TEST(ForEachSetBit, VisitsExactlySetBits) {
  const Word w = (Word{1} << 0) | (Word{1} << 7) | (Word{1} << 63);
  std::vector<std::size_t> seen;
  for_each_set_bit(w, 100, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{100, 107, 163}));
}

TEST(ForEachSetBit, ZeroWordVisitsNothing) {
  int calls = 0;
  for_each_set_bit(0, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Bitmap, SetTestClear) {
  Bitmap bm(130);
  EXPECT_FALSE(bm.test(0));
  bm.set(0);
  bm.set(64);
  bm.set(129);
  EXPECT_TRUE(bm.test(0));
  EXPECT_TRUE(bm.test(64));
  EXPECT_TRUE(bm.test(129));
  EXPECT_FALSE(bm.test(1));
  EXPECT_EQ(bm.count(), 3u);
  bm.clear_bit(64);
  EXPECT_FALSE(bm.test(64));
  EXPECT_EQ(bm.count(), 2u);
}

TEST(Bitmap, AtomicTestAndSetReportsTransition) {
  Bitmap bm(64);
  EXPECT_TRUE(bm.atomic_test_and_set(5));
  EXPECT_FALSE(bm.atomic_test_and_set(5));
  EXPECT_TRUE(bm.test(5));
}

TEST(Bitmap, AtomicTestAndSetUnderContention) {
  Bitmap bm(1024);
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < 1024; ++i) {
        if (bm.atomic_test_and_set(i)) winners.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1024);  // each bit won exactly once
  EXPECT_EQ(bm.count(), 1024u);
}

TEST(Bitmap, RangeCountAndDrainAscendAndClear) {
  Bitmap bm(300);
  const std::vector<std::size_t> bits = {0, 5, 63, 64, 70, 127, 128, 200, 299};
  for (std::size_t b : bits) bm.set(b);
  EXPECT_EQ(bm.count_range(0, 300), bits.size());
  EXPECT_EQ(bm.count_range(5, 5), 0u);
  EXPECT_EQ(bm.count_range(5, 64), 2u);     // 5, 63: ends on a word edge
  EXPECT_EQ(bm.count_range(6, 128), 4u);    // 63, 64, 70, 127
  EXPECT_EQ(bm.count_range(299, 300), 1u);  // last bit, partial word

  std::vector<std::size_t> drained;
  bm.drain_range(63, 200, [&](std::size_t i) { drained.push_back(i); });
  EXPECT_EQ(drained, (std::vector<std::size_t>{63, 64, 70, 127, 128}));
  // Bits outside the range survive; the drained ones are gone.
  EXPECT_EQ(bm.count(), 4u);
  EXPECT_TRUE(bm.test(5));
  EXPECT_TRUE(bm.test(200));
  EXPECT_FALSE(bm.test(63));
  drained.clear();
  bm.drain_range(0, 300, [&](std::size_t i) { drained.push_back(i); });
  EXPECT_EQ(drained, (std::vector<std::size_t>{0, 5, 200, 299}));
  EXPECT_FALSE(bm.any());
}

TEST(OrWord, SharedAndPlainAgree) {
  Word plain = 0b1000;
  Word shared = 0b1000;
  for (const Word bits : {Word{0}, Word{0b11}, ~Word{0} << 60, Word{0}}) {
    or_word(&plain, bits, /*shared=*/false);
    or_word(&shared, bits, /*shared=*/true);
    EXPECT_EQ(plain, shared);
  }
  EXPECT_EQ(plain, (~Word{0} << 60) | 0b1011);
}

TEST(Bitmap, OrAndNot) {
  Bitmap a(100), b(100);
  a.set(1);
  a.set(50);
  b.set(50);
  b.set(99);
  Bitmap u = a;
  u.or_with(b);
  EXPECT_EQ(u.count(), 3u);
  u.and_not(b);
  EXPECT_EQ(u.count(), 1u);
  EXPECT_TRUE(u.test(1));
}

TEST(Bitmap, ForEachEnumeratesInOrder) {
  Bitmap bm(200);
  bm.set(3);
  bm.set(64);
  bm.set(199);
  std::vector<std::size_t> seen;
  bm.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64, 199}));
}

TEST(Bitmap, AnyAndClearAll) {
  Bitmap bm(70);
  EXPECT_FALSE(bm.any());
  bm.set(69);
  EXPECT_TRUE(bm.any());
  bm.clear_all();
  EXPECT_FALSE(bm.any());
}

TEST(QueryBitRows, SetTestAcrossWords) {
  QueryBitRows rows(10, 130);  // 3 words per row
  EXPECT_EQ(rows.words_per_row(), 3u);
  rows.set(4, 0);
  rows.set(4, 64);
  rows.set(4, 129);
  EXPECT_TRUE(rows.test(4, 0));
  EXPECT_TRUE(rows.test(4, 64));
  EXPECT_TRUE(rows.test(4, 129));
  EXPECT_FALSE(rows.test(4, 1));
  EXPECT_FALSE(rows.test(5, 0));
  EXPECT_EQ(rows.count(), 3u);
}

TEST(QueryBitRows, RowAnyAndClearRow) {
  QueryBitRows rows(4, 64);
  EXPECT_FALSE(rows.row_any(2));
  rows.set(2, 63);
  EXPECT_TRUE(rows.row_any(2));
  rows.clear_row(2);
  EXPECT_FALSE(rows.row_any(2));
}

TEST(QueryBitRows, SwapExchangesContents) {
  QueryBitRows a(4, 8), b(4, 8);
  a.set(0, 0);
  b.set(3, 7);
  a.swap(b);
  EXPECT_FALSE(a.test(0, 0));
  EXPECT_TRUE(a.test(3, 7));
  EXPECT_TRUE(b.test(0, 0));
}

TEST(QueryBitRows, WordEdgeQueryCounts) {
  // Query counts straddling the 64-bit word boundary: 63 and 64 queries
  // must pack into one word per row, 65 must spill into two — and the
  // bits on either side of the seam must not alias.
  for (const std::size_t q_count : {std::size_t{63}, std::size_t{64},
                                    std::size_t{65}}) {
    QueryBitRows rows(3, q_count);
    EXPECT_EQ(rows.words_per_row(), q_count <= 64 ? 1u : 2u)
        << q_count << " queries";

    // Set the last valid query bit on every row; nothing else may appear.
    for (std::size_t r = 0; r < 3; ++r) rows.set(r, q_count - 1);
    EXPECT_EQ(rows.count(), 3u) << q_count << " queries";
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_TRUE(rows.test(r, q_count - 1));
      EXPECT_FALSE(rows.test(r, 0));
      EXPECT_TRUE(rows.row_any(r));
    }

    // First and last bit of the same row live in the right words.
    rows.set(1, 0);
    EXPECT_EQ(rows.row(1)[0] & Word{1}, Word{1});
    if (q_count == 65) {
      // Bit 64 is bit 0 of the second word, not bit 63 of the first.
      EXPECT_EQ(rows.row(1)[1], Word{1});
      EXPECT_EQ(rows.row(1)[0] >> 63, Word{0});
    } else {
      EXPECT_EQ(rows.row(1)[0] >> (q_count - 1), Word{1});
    }
    rows.clear_row(1);
    EXPECT_FALSE(rows.row_any(1));
    EXPECT_EQ(rows.count(), 2u);
  }
}

TEST(PopcountWords, EmptyAndZero) {
  EXPECT_EQ(popcount_words(nullptr, 0), 0u);
  const Word zeros[3] = {0, 0, 0};
  EXPECT_EQ(popcount_words(zeros, 3), 0u);
}

TEST(PopcountWords, WordBoundaryPatterns) {
  // Row widths straddling the word boundary, as a 63/64/65-query batch
  // row would lay them out.
  const Word w63 = ~Word{0} >> 1;  // 63 bits
  EXPECT_EQ(popcount_words(&w63, 1), 63u);
  const Word w64 = ~Word{0};
  EXPECT_EQ(popcount_words(&w64, 1), 64u);
  const Word w65[2] = {~Word{0}, Word{1}};  // 65 bits across two words
  EXPECT_EQ(popcount_words(w65, 2), 65u);
}

TEST(PopcountWords, MatchesPerBitLoop) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  Word words[8];
  for (auto& w : words) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  std::uint64_t expected = 0;
  for (const Word w : words) {
    for (std::size_t b = 0; b < kWordBits; ++b) {
      expected += (w >> b) & 1u;
    }
  }
  EXPECT_EQ(popcount_words(words, 8), expected);
  // Prefix sums agree too (the per-row accounting slices the same array).
  std::uint64_t prefix = 0;
  for (std::size_t c = 0; c <= 8; ++c) {
    EXPECT_EQ(popcount_words(words, c), prefix);
    if (c < 8) prefix += popcount_words(&words[c], 1);
  }
}

TEST(QueryBitRowsDeathTest, OversizedBatchAborts) {
  EXPECT_DEATH(QueryBitRows(4, QueryBitRows::kMaxBatchWords * 64 + 1),
               "query batch exceeds");
}

}  // namespace
}  // namespace cgraph
