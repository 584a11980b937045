// Column: a typed, null-able vector — the unit of columnar storage in the
// relational engine and of cell-attribute storage in array chunks.
#ifndef NEXUS_TYPES_COLUMN_H_
#define NEXUS_TYPES_COLUMN_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace nexus {

/// Dense typed vector with an optional validity mask.
///
/// Storage is one std::vector of the native representation; bools are stored
/// as uint8_t. The validity mask is allocated lazily on the first null, so
/// fully valid columns stay compact and branch-free to scan.
class Column {
 public:
  /// An empty column of the given type.
  explicit Column(DataType type);

  /// A column of `n` default-valued, valid entries (0 / 0.0 / false / "").
  /// Used by array chunks, which are dense and randomly written.
  static Column Filled(DataType type, int64_t n);

  /// Wrap existing data (no nulls).
  static Column FromInt64(std::vector<int64_t> data);
  static Column FromFloat64(std::vector<double> data);
  static Column FromBool(std::vector<uint8_t> data);
  static Column FromString(std::vector<std::string> data);

  DataType type() const { return type_; }
  int64_t size() const;
  bool empty() const { return size() == 0; }

  /// True when row i holds null.
  bool IsNull(int64_t i) const {
    return !validity_.empty() && validity_[static_cast<size_t>(i)] == 0;
  }
  /// Number of null entries. O(1): the count is maintained on every
  /// mutation rather than recounted from the validity mask — has_nulls()
  /// sits on hot kernel-dispatch paths.
  int64_t null_count() const { return null_count_; }
  bool has_nulls() const { return null_count_ > 0; }

  /// Boxed access; returns Value::Null() for null rows.
  Value GetValue(int64_t i) const;

  /// Appends a value, coercing numerics; a null of any kind appends null.
  /// Errors when the value's type cannot be coerced to the column type.
  Status Append(const Value& v);
  void AppendNull();

  /// Typed fast-path appends (no null, no coercion check).
  void AppendInt64(int64_t v) { Ints().push_back(v); NoteAppended(); }
  void AppendFloat64(double v) { Doubles().push_back(v); NoteAppended(); }
  void AppendBool(bool v) { Bools().push_back(v ? 1 : 0); NoteAppended(); }
  void AppendString(std::string v) {
    Strings().push_back(std::move(v));
    NoteAppended();
  }

  void Reserve(int64_t n);

  /// Overwrites row i, with the same coercion rules as Append.
  Status SetValue(int64_t i, const Value& v);
  void SetNull(int64_t i);

  /// Typed fast-path writes (row must exist; marks the row valid).
  void SetInt64(int64_t i, int64_t v) { Ints()[static_cast<size_t>(i)] = v; MarkValid(i); }
  void SetFloat64(int64_t i, double v) { Doubles()[static_cast<size_t>(i)] = v; MarkValid(i); }
  void SetBool(int64_t i, bool v) { Bools()[static_cast<size_t>(i)] = v ? 1 : 0; MarkValid(i); }
  void SetString(int64_t i, std::string v) {
    Strings()[static_cast<size_t>(i)] = std::move(v);
    MarkValid(i);
  }

  /// Overwrites row i with row j of `src`, null included, without boxing.
  /// Precondition: `src` has this column's type.
  void SetFrom(int64_t i, const Column& src, int64_t j) {
    if (src.IsNull(j)) {
      SetNull(i);
      return;
    }
    size_t idx = static_cast<size_t>(j);
    switch (type_) {
      case DataType::kBool:
        SetBool(i, src.bools()[idx] != 0);
        break;
      case DataType::kInt64:
        SetInt64(i, src.ints()[idx]);
        break;
      case DataType::kFloat64:
        SetFloat64(i, src.doubles()[idx]);
        break;
      case DataType::kString:
        SetString(i, src.strings()[idx]);
        break;
    }
  }

  /// Appends rows `rows` of `src` (same type required), with the null
  /// handling of per-row Append: a null row appends a canonical null, and
  /// the validity mask is allocated only once a null actually lands.
  void AppendRows(const Column& src, const std::vector<int64_t>& rows);

  /// Typed read access. Precondition: type() matches.
  const std::vector<int64_t>& ints() const { return std::get<std::vector<int64_t>>(data_); }
  const std::vector<double>& doubles() const { return std::get<std::vector<double>>(data_); }
  const std::vector<uint8_t>& bools() const { return std::get<std::vector<uint8_t>>(data_); }
  const std::vector<std::string>& strings() const {
    return std::get<std::vector<std::string>>(data_);
  }

  /// Raw validity mask (empty == all valid; 1 marks a valid row). Exposed so
  /// the bytecode VM can take zero-copy null-bitmap views; check has_nulls()
  /// first — the mask may be allocated yet all-ones.
  const std::vector<uint8_t>& validity() const { return validity_; }

  /// Numeric read widened to double (works for int64 and float64 columns;
  /// any other type throws std::bad_variant_access).
  double NumericAt(int64_t i) const {
    size_t idx = static_cast<size_t>(i);
    return type_ == DataType::kInt64 ? static_cast<double>(ints()[idx])
                                     : doubles()[idx];
  }

  /// New column containing rows [offset, offset+length).
  Column Slice(int64_t offset, int64_t length) const;

  /// New column with rows gathered by `indices`.
  Column Take(const std::vector<int64_t>& indices) const;

  /// Appends all rows of `other` (same type required).
  Status AppendColumn(const Column& other);

  /// Approximate in-memory footprint, used for transfer-cost accounting.
  int64_t ByteSize() const;

  /// Row-wise equality including null handling.
  bool Equals(const Column& other) const;

  /// Hash of row i, consistent with Value::Hash.
  uint64_t HashAt(int64_t i) const;

 private:
  std::vector<int64_t>& Ints() { return std::get<std::vector<int64_t>>(data_); }
  std::vector<double>& Doubles() { return std::get<std::vector<double>>(data_); }
  std::vector<uint8_t>& Bools() { return std::get<std::vector<uint8_t>>(data_); }
  std::vector<std::string>& Strings() {
    return std::get<std::vector<std::string>>(data_);
  }
  // Keeps the lazily allocated validity mask aligned after a typed append.
  void NoteAppended() {
    if (!validity_.empty()) validity_.push_back(1);
  }
  void MarkValid(int64_t i) {
    if (validity_.empty()) return;
    uint8_t& v = validity_[static_cast<size_t>(i)];
    null_count_ -= (v == 0);
    v = 1;
  }
  void EnsureValidity();
  // Rebuilds null_count_ from validity_ (bulk constructions: Slice/Take).
  void RecountNulls() {
    null_count_ = 0;
    for (uint8_t v : validity_) null_count_ += (v == 0);
  }

  DataType type_;
  std::variant<std::vector<uint8_t>, std::vector<int64_t>, std::vector<double>,
               std::vector<std::string>>
      data_;
  std::vector<uint8_t> validity_;  // empty == all valid
  int64_t null_count_ = 0;         // invariant: zeros in validity_
};

}  // namespace nexus

#endif  // NEXUS_TYPES_COLUMN_H_
