// Flat hash indexes: the one hashing core under HashJoin (in memory and in
// each Grace partition), Distinct and the grouped fold.
//
// Both indexes are a few contiguous arrays — no node or vector per bucket —
// and every entry carries its full 64-bit row hash, so a lookup compares
// hashes before it touches a key column. Two access patterns share them:
//
//   - HashIndex is the join build: a static multimap from hash to build
//     rows, laid out contiguously per bucket by a counting sort (the CSR
//     layout of algebra/csr.h). A bucket's entries sit in ascending row
//     order, which is what makes the join's pair order independent of the
//     thread count.
//   - GroupIndex is find-or-insert over groups (Distinct, the fold): open
//     addressing with linear probing. Groups are inserted in first-seen
//     order and rehashed in id order, so the entries a probe meets for one
//     hash are in ascending group order too.
//
// PartitionRows is the parallel builds' scatter: one pass buckets row
// indices by the top bits of their hash, in ascending row order within each
// partition, so every partition can then work on its own rows alone.
#ifndef NEXUS_RELATIONAL_HASH_INDEX_H_
#define NEXUS_RELATIONAL_HASH_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/parallel.h"

namespace nexus {
namespace relational {

/// log2 of the partition count a parallel build uses at `threads`: the
/// smallest power of two >= threads, at most 64 (0 — one partition — at a
/// budget of 1).
inline int HashPartitionBits(int threads) {
  int bits = 0;
  while ((1 << bits) < threads && bits < 6) ++bits;
  return bits;
}

/// Partition of hash `h` among 2^bits: its top bits, so a partition owns a
/// contiguous range of any directory indexed by a longer top-bit prefix.
inline int HashPartitionOf(uint64_t h, int bits) {
  return bits == 0 ? 0 : static_cast<int>(h >> (64 - bits));
}

/// Row indices grouped by partition: partition p's rows are
/// rows[offsets[p], offsets[p + 1]), ascending.
struct RowPartitions {
  std::vector<int64_t> offsets;
  std::vector<int64_t> rows;
};

/// Stable scatter of the rows r in [0, n) with keep(r) into
/// 2^bits partitions by HashPartitionOf. Morsel-parallel at `threads`: each
/// morsel counts its rows per partition, a prefix sum over (partition,
/// morsel) gives every morsel its own write ranges, and a second pass fills
/// them — the output is the same at any thread count.
template <typename Keep>
RowPartitions PartitionRows(const uint64_t* hashes, int64_t n, int bits,
                            int threads, Keep keep) {
  const int parts = 1 << bits;
  const int64_t grain = kMorselRows;
  const int64_t morsels = (n + grain - 1) / grain;
  // counts[m * parts + p]; at a budget of 1 morsel 0 covers every row.
  std::vector<int64_t> counts(static_cast<size_t>(morsels * parts), 0);
  ParallelFor(
      n, grain,
      [&](int64_t b, int64_t e) {
        int64_t local[64] = {0};
        for (int64_t r = b; r < e; ++r) {
          if (keep(r)) ++local[HashPartitionOf(hashes[r], bits)];
        }
        std::copy(local, local + parts,
                  counts.begin() + static_cast<std::ptrdiff_t>((b / grain) * parts));
      },
      threads);
  RowPartitions out;
  out.offsets.assign(static_cast<size_t>(parts) + 1, 0);
  int64_t run = 0;
  for (int p = 0; p < parts; ++p) {
    out.offsets[static_cast<size_t>(p)] = run;
    for (int64_t m = 0; m < morsels; ++m) {
      int64_t& c = counts[static_cast<size_t>(m * parts + p)];
      int64_t start = run;
      run += c;
      c = start;  // now the morsel's first slot in partition p
    }
  }
  out.offsets[static_cast<size_t>(parts)] = run;
  out.rows.resize(static_cast<size_t>(run));
  ParallelFor(
      n, grain,
      [&](int64_t b, int64_t e) {
        int64_t cursor[64] = {0};
        std::copy(counts.begin() + static_cast<std::ptrdiff_t>((b / grain) * parts),
                  counts.begin() + static_cast<std::ptrdiff_t>((b / grain + 1) * parts),
                  cursor);
        for (int64_t r = b; r < e; ++r) {
          if (!keep(r)) continue;
          int p = HashPartitionOf(hashes[r], bits);
          out.rows[static_cast<size_t>(cursor[p]++)] = r;
        }
      },
      threads);
  return out;
}

/// Static hash → row multimap (the join build side).
class HashIndex {
 public:
  struct Entry {
    uint64_t hash;
    int64_t row;
  };

  /// Indexes the rows r in [0, n) with keep(r); row r hashes to hashes[r].
  /// With more than one thread the rows are first scattered by
  /// PartitionRows and each partition sorts its own contiguous directory
  /// range in parallel; the index is the same at any thread count.
  template <typename Keep>
  static HashIndex Build(const uint64_t* hashes, int64_t n, int threads,
                         Keep keep);

  /// Bytes an index over `rows` rows holds (directory plus entries): the
  /// join's working set, and what it tests against the spill budget.
  static int64_t BytesFor(int64_t rows) {
    return (DirectorySize(rows, 0) + 1) * static_cast<int64_t>(sizeof(int64_t)) +
           rows * static_cast<int64_t>(sizeof(Entry));
  }

  /// Calls f(row) for every indexed row whose hash is `h`, ascending.
  template <typename F>
  void ForEach(uint64_t h, F&& f) const {
    const size_t b = static_cast<size_t>(h >> shift_);
    const Entry* e = entries_.data() + offsets_[b];
    const Entry* end = entries_.data() + offsets_[b + 1];
    for (; e != end; ++e) {
      if (e->hash == h) f(e->row);
    }
  }

 private:
  // A power of two >= max(rows, 2, partitions): load factor <= 1.
  static int64_t DirectorySize(int64_t rows, int part_bits) {
    int64_t size = int64_t{2} << part_bits;
    while (size < rows) size <<= 1;
    return size;
  }

  int shift_ = 63;
  std::vector<int64_t> offsets_;  ///< bucket b's entries: [offsets_[b], offsets_[b+1])
  std::vector<Entry> entries_;
};

template <typename Keep>
HashIndex HashIndex::Build(const uint64_t* hashes, int64_t n, int threads,
                           Keep keep) {
  const int part_bits = HashPartitionBits(threads);
  const int64_t size = DirectorySize(n, part_bits);
  int bits = 0;
  while ((int64_t{1} << bits) < size) ++bits;
  HashIndex index;
  index.shift_ = 64 - bits;
  index.offsets_.assign(static_cast<size_t>(size) + 1, 0);
  // Counting sort of one partition's rows into its directory range
  // [lo, hi), entries from `base`: count_range counts per bucket and turns
  // the counts into starts (returning the end); fill_range places each row
  // at its bucket's start, advancing it, then shifts the starts back.
  auto count_range = [&index, hashes](int64_t lo, int64_t hi, int64_t base,
                                      auto for_rows) {
    int64_t* off = index.offsets_.data();
    const int shift = index.shift_;
    for_rows([&](int64_t r) { ++off[hashes[r] >> shift]; });
    int64_t run = base;
    for (int64_t b = lo; b < hi; ++b) {
      int64_t c = off[b];
      off[b] = run;
      run += c;
    }
    return run;
  };
  auto fill_range = [&index, hashes](int64_t lo, int64_t hi, int64_t base,
                                      auto for_rows) {
    int64_t* off = index.offsets_.data();
    Entry* entries = index.entries_.data();
    const int shift = index.shift_;
    for_rows([&](int64_t r) {
      uint64_t h = hashes[r];
      entries[off[h >> shift]++] = Entry{h, r};
    });
    for (int64_t b = hi - 1; b > lo; --b) off[b] = off[b - 1];
    off[lo] = base;
  };
  if (part_bits == 0) {
    auto all = [&](auto f) {
      for (int64_t r = 0; r < n; ++r) {
        if (keep(r)) f(r);
      }
    };
    int64_t total = count_range(0, size, 0, all);
    index.entries_.resize(static_cast<size_t>(total));
    fill_range(0, size, 0, all);
    index.offsets_[static_cast<size_t>(size)] = total;
    return index;
  }
  RowPartitions parts = PartitionRows(hashes, n, part_bits, threads, keep);
  const int nparts = 1 << part_bits;
  const int64_t per_part = size >> part_bits;
  index.entries_.resize(parts.rows.size());
  ParallelFor(
      nparts, 1,
      [&](int64_t pb, int64_t pe) {
        for (int64_t p = pb; p < pe; ++p) {
          const int64_t base = parts.offsets[static_cast<size_t>(p)];
          const int64_t end = parts.offsets[static_cast<size_t>(p) + 1];
          auto mine = [&](auto f) {
            for (int64_t i = base; i < end; ++i) f(parts.rows[static_cast<size_t>(i)]);
          };
          count_range(p * per_part, (p + 1) * per_part, base, mine);
          fill_range(p * per_part, (p + 1) * per_part, base, mine);
        }
      },
      threads);
  index.offsets_[static_cast<size_t>(size)] =
      static_cast<int64_t>(parts.rows.size());
  return index;
}

/// Find-or-insert index over groups identified by a 64-bit hash plus a key
/// comparison the caller supplies (Distinct, the grouped fold).
class GroupIndex {
 public:
  GroupIndex() { Rehash(16); }

  /// The first group g, in id order, with hash `h` and same(g); when there
  /// is none, a new group whose id is the number of groups so far (and
  /// *inserted is set).
  template <typename Same>
  int64_t FindOrInsert(uint64_t h, Same&& same, bool* inserted) {
    size_t s = Home(h);
    for (;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.group < 0) break;
      if (slot.hash == h && same(slot.group)) {
        *inserted = false;
        return slot.group;
      }
    }
    const int64_t g = static_cast<int64_t>(hashes_.size());
    hashes_.push_back(h);
    *inserted = true;
    if (2 * hashes_.size() > slots_.size()) {
      Rehash(2 * slots_.size());
    } else {
      slots_[s] = Slot{h, g};
    }
    return g;
  }

  /// Bytes the index holds (slots plus one hash per group).
  int64_t ByteSize() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(Slot) +
                                hashes_.capacity() * sizeof(uint64_t));
  }

 private:
  struct Slot {
    uint64_t hash;
    int64_t group;  ///< -1: empty
  };

  // Fibonacci hashing: the top bits of h times the golden ratio mix every
  // bit of h, so a fold partition's hashes (which share their top bits)
  // still spread over the whole table.
  size_t Home(uint64_t h) const {
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // Re-inserts every group in id order, which keeps the groups of one hash
  // in ascending id order along its probe sequence.
  void Rehash(size_t capacity) {
    slots_.assign(capacity, Slot{0, -1});
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (size_t g = 0; g < hashes_.size(); ++g) {
      size_t s = Home(hashes_[g]);
      while (slots_[s].group >= 0) s = (s + 1) & mask_;
      slots_[s] = Slot{hashes_[g], static_cast<int64_t>(g)};
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint64_t> hashes_;  ///< per group, in id order
  size_t mask_ = 0;
  int shift_ = 64;  ///< 64 - log2(capacity)
};

}  // namespace relational
}  // namespace nexus

#endif  // NEXUS_RELATIONAL_HASH_INDEX_H_
