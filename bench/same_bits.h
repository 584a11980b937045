// Byte-identity oracle for the benches' identity gates. Table::Equals and
// Column::Equals take NaN for any number and -0.0 for +0.0, so SameBits
// also holds every non-null float64 cell to its bit pattern.
#ifndef NEXUS_BENCH_SAME_BITS_H_
#define NEXUS_BENCH_SAME_BITS_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "types/table.h"

namespace nexus {

inline bool SameBits(const std::vector<double>& got,
                     const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<uint64_t>(got[i]) != std::bit_cast<uint64_t>(want[i])) {
      return false;
    }
  }
  return true;
}

inline bool SameBits(const Column& got, const Column& want) {
  if (!got.Equals(want)) return false;
  if (got.type() != DataType::kFloat64) return true;
  for (int64_t r = 0; r < got.size(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (!got.IsNull(r) && std::bit_cast<uint64_t>(got.doubles()[i]) !=
                              std::bit_cast<uint64_t>(want.doubles()[i])) {
      return false;
    }
  }
  return true;
}

inline bool SameBits(const Table& got, const Table& want) {
  if (!got.Equals(want)) return false;
  for (int c = 0; c < got.num_columns(); ++c) {
    if (!SameBits(got.column(c), want.column(c))) return false;
  }
  return true;
}

}  // namespace nexus

#endif  // NEXUS_BENCH_SAME_BITS_H_
