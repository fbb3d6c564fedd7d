// Bit-level primitives behind the MS-BFS style concurrent traversal engine
// (paper §3.5): word-packed per-query frontier/visited bitmaps and the
// iteration helpers used to walk set bits cheaply.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace cgraph {

using Word = std::uint64_t;
inline constexpr std::size_t kWordBits = 64;

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t words_for_bits(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

/// Invoke `fn(index)` for every set bit in `word`, where indices are
/// relative to `base`. Compiles down to a tight ctz loop.
template <typename Fn>
inline void for_each_set_bit(Word word, std::size_t base, Fn&& fn) {
  while (word != 0) {
    const int bit = std::countr_zero(word);
    fn(base + static_cast<std::size_t>(bit));
    word &= word - 1;  // clear lowest set bit
  }
}

/// Population count over a word row: one hardware popcount per 64 bits,
/// never a per-bit loop. This is the primitive behind the frontier-density
/// (scout-count) accessors the direction-optimizing heuristic reads every
/// level, so its cost must stay O(words).
[[nodiscard]] inline std::uint64_t popcount_words(const Word* words,
                                                  std::size_t count) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < count; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(words[w]));
  }
  return total;
}

/// OR `bits` into `*word`. A `shared` word may be ORed by several threads
/// of one scan phase, so it takes a relaxed atomic OR through an atomic
/// view of the plain storage (legal because during that phase the word is
/// only ever touched through this view, and OR commutes, so the result is
/// independent of thread interleaving). A word with a single writer takes
/// a plain OR.
inline void or_word(Word* word, Word bits, bool shared) {
  if (!shared) {
    *word |= bits;
  } else if (bits != 0) {
    reinterpret_cast<std::atomic<Word>*>(word)->fetch_or(
        bits, std::memory_order_relaxed);
  }
}

/// Fixed-size bitmap over a contiguous word array. Single-writer unless the
/// atomic_* methods are used. This is the storage behind per-query frontier
/// and visited state in the bit-parallel engine.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t nbits)
      : nbits_(nbits), words_(words_for_bits(nbits), 0) {}

  void resize(std::size_t nbits) {
    nbits_ = nbits;
    words_.assign(words_for_bits(nbits), 0);
  }

  [[nodiscard]] std::size_t size_bits() const { return nbits_; }
  [[nodiscard]] std::size_t size_words() const { return words_.size(); }
  [[nodiscard]] bool empty_storage() const { return words_.empty(); }

  void set(std::size_t i) {
    CGRAPH_DCHECK(i < nbits_);
    words_[i / kWordBits] |= Word{1} << (i % kWordBits);
  }

  void clear_bit(std::size_t i) {
    CGRAPH_DCHECK(i < nbits_);
    words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }

  [[nodiscard]] bool test(std::size_t i) const {
    CGRAPH_DCHECK(i < nbits_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  /// Atomically set bit i; returns true if this call flipped it 0->1.
  /// Used when multiple edge-set workers discover the same vertex.
  bool atomic_test_and_set(std::size_t i) {
    CGRAPH_DCHECK(i < nbits_);
    auto* w = reinterpret_cast<std::atomic<Word>*>(&words_[i / kWordBits]);
    const Word mask = Word{1} << (i % kWordBits);
    const Word old = w->fetch_or(mask, std::memory_order_acq_rel);
    return (old & mask) == 0;
  }

  void clear_all() { std::fill(words_.begin(), words_.end(), Word{0}); }

  [[nodiscard]] bool any() const {
    for (Word w : words_)
      if (w != 0) return true;
    return false;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (Word w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  [[nodiscard]] Word word(std::size_t wi) const { return words_[wi]; }
  Word& word(std::size_t wi) { return words_[wi]; }
  [[nodiscard]] const Word* data() const { return words_.data(); }
  Word* data() { return words_.data(); }

  /// a |= b. Sizes must match.
  void or_with(const Bitmap& other) {
    CGRAPH_DCHECK(other.words_.size() == words_.size());
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// a &= ~b (remove bits present in `other`). Sizes must match.
  void and_not(const Bitmap& other) {
    CGRAPH_DCHECK(other.words_.size() == words_.size());
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] &= ~other.words_[i];
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      for_each_set_bit(words_[wi], wi * kWordBits, fn);
    }
  }

  /// Number of set bits in [begin, end).
  [[nodiscard]] std::size_t count_range(std::size_t begin,
                                        std::size_t end) const {
    std::size_t n = 0;
    for_range_words(begin, end, [&](std::size_t wi, Word mask) {
      n += static_cast<std::size_t>(std::popcount(words_[wi] & mask));
    });
    return n;
  }

  /// Visit the set bits in [begin, end) in ascending order, clearing them.
  /// One pass over the range's words: the ordered alternative to keeping a
  /// list of set bits and sorting it.
  template <typename Fn>
  void drain_range(std::size_t begin, std::size_t end, Fn&& fn) {
    for_range_words(begin, end, [&](std::size_t wi, Word mask) {
      const Word bits = words_[wi] & mask;
      words_[wi] &= ~mask;
      for_each_set_bit(bits, wi * kWordBits, fn);
    });
  }

  void swap(Bitmap& other) noexcept {
    words_.swap(other.words_);
    std::swap(nbits_, other.nbits_);
  }

 private:
  /// fn(word index, in-range mask) for each word overlapping [begin, end).
  template <typename Fn>
  void for_range_words(std::size_t begin, std::size_t end, Fn&& fn) const {
    CGRAPH_DCHECK(begin <= end && end <= nbits_);
    if (begin == end) return;
    const std::size_t first = begin / kWordBits;
    const std::size_t last = (end - 1) / kWordBits;
    for (std::size_t wi = first; wi <= last; ++wi) {
      Word mask = ~Word{0};
      if (wi == first) mask &= ~Word{0} << (begin % kWordBits);
      if (wi == last) {
        mask &= ~Word{0} >> (kWordBits - 1 - (end - 1) % kWordBits);
      }
      fn(wi, mask);
    }
  }

  std::size_t nbits_ = 0;
  std::vector<Word> words_;
};

/// Per-vertex query-batch bit rows, the core MS-BFS layout (paper Fig. 6):
/// row r holds one bit per query in the batch, so a full row fits in one or
/// two machine words and a whole batch of queries is advanced with a handful
/// of bitwise ops per vertex. Batch width is fixed at construction and
/// bounded by kMaxBatchWords*64 queries.
class QueryBitRows {
 public:
  static constexpr std::size_t kMaxBatchWords = 8;  // up to 512 queries/batch

  QueryBitRows() = default;

  /// nrows = number of vertices; nqueries = concurrent queries in the batch.
  QueryBitRows(std::size_t nrows, std::size_t nqueries)
      : nrows_(nrows),
        nqueries_(nqueries),
        words_per_row_(words_for_bits(nqueries)) {
    CGRAPH_CHECK_MSG(words_per_row_ <= kMaxBatchWords,
                     "query batch exceeds QueryBitRows capacity");
    bits_.assign(nrows_ * words_per_row_, 0);
  }

  [[nodiscard]] std::size_t rows() const { return nrows_; }
  [[nodiscard]] std::size_t queries() const { return nqueries_; }
  [[nodiscard]] std::size_t words_per_row() const { return words_per_row_; }

  [[nodiscard]] const Word* row(std::size_t r) const {
    CGRAPH_DCHECK(r < nrows_);
    return bits_.data() + r * words_per_row_;
  }
  Word* row(std::size_t r) {
    CGRAPH_DCHECK(r < nrows_);
    return bits_.data() + r * words_per_row_;
  }

  void set(std::size_t r, std::size_t q) {
    CGRAPH_DCHECK(q < nqueries_);
    row(r)[q / kWordBits] |= Word{1} << (q % kWordBits);
  }

  [[nodiscard]] bool test(std::size_t r, std::size_t q) const {
    CGRAPH_DCHECK(q < nqueries_);
    return (row(r)[q / kWordBits] >> (q % kWordBits)) & 1u;
  }

  /// True if any query bit is set in row r.
  [[nodiscard]] bool row_any(std::size_t r) const {
    const Word* p = row(r);
    for (std::size_t w = 0; w < words_per_row_; ++w)
      if (p[w] != 0) return true;
    return false;
  }

  void clear_row(std::size_t r) {
    Word* p = row(r);
    for (std::size_t w = 0; w < words_per_row_; ++w) p[w] = 0;
  }

  void clear_all() { std::fill(bits_.begin(), bits_.end(), Word{0}); }

  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (Word w : bits_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  void swap(QueryBitRows& other) noexcept {
    bits_.swap(other.bits_);
    std::swap(nrows_, other.nrows_);
    std::swap(nqueries_, other.nqueries_);
    std::swap(words_per_row_, other.words_per_row_);
  }

  /// Raw word-array access for checkpoint serialization: the whole plane
  /// as one contiguous span of rows * words_per_row words.
  [[nodiscard]] const Word* data() const { return bits_.data(); }
  Word* data() { return bits_.data(); }
  [[nodiscard]] std::size_t size_words() const { return bits_.size(); }

  /// Bytes the plane actually reserves (capacity, not size — the honest
  /// number for long-running footprint accounting).
  [[nodiscard]] std::size_t capacity_bytes() const {
    return bits_.capacity() * sizeof(Word);
  }

  /// Free the plane's storage entirely (0 rows afterwards).
  void release() {
    std::vector<Word>().swap(bits_);
    nrows_ = 0;
    nqueries_ = 0;
    words_per_row_ = 0;
  }

 private:
  std::size_t nrows_ = 0;
  std::size_t nqueries_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<Word> bits_;
};

}  // namespace cgraph
