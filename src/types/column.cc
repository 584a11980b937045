#include "types/column.h"

#include "common/str_util.h"

namespace nexus {

Column::Column(DataType type) : type_(type) {
  switch (type) {
    case DataType::kBool:
      data_ = std::vector<uint8_t>{};
      break;
    case DataType::kInt64:
      data_ = std::vector<int64_t>{};
      break;
    case DataType::kFloat64:
      data_ = std::vector<double>{};
      break;
    case DataType::kString:
      data_ = std::vector<std::string>{};
      break;
  }
}

Column Column::Filled(DataType type, int64_t n) {
  Column c(type);
  std::visit([n](auto& v) { v.resize(static_cast<size_t>(n)); }, c.data_);
  return c;
}

Column Column::FromInt64(std::vector<int64_t> data) {
  Column c(DataType::kInt64);
  c.data_ = std::move(data);
  return c;
}
Column Column::FromFloat64(std::vector<double> data) {
  Column c(DataType::kFloat64);
  c.data_ = std::move(data);
  return c;
}
Column Column::FromBool(std::vector<uint8_t> data) {
  Column c(DataType::kBool);
  c.data_ = std::move(data);
  return c;
}
Column Column::FromString(std::vector<std::string> data) {
  Column c(DataType::kString);
  c.data_ = std::move(data);
  return c;
}

int64_t Column::size() const {
  return std::visit([](const auto& v) { return static_cast<int64_t>(v.size()); },
                    data_);
}

Value Column::GetValue(int64_t i) const {
  if (IsNull(i)) return Value::Null();
  size_t idx = static_cast<size_t>(i);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(bools()[idx] != 0);
    case DataType::kInt64:
      return Value::Int64(ints()[idx]);
    case DataType::kFloat64:
      return Value::Float64(doubles()[idx]);
    case DataType::kString:
      return Value::String(strings()[idx]);
  }
  return Value::Null();
}

void Column::EnsureValidity() {
  if (validity_.empty()) validity_.assign(static_cast<size_t>(size()), 1);
}

Status Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kBool:
      if (!v.is_bool()) break;
      AppendBool(v.AsBool());
      return Status::OK();
    case DataType::kInt64:
      if (v.is_int64()) {
        AppendInt64(v.AsInt64());
        return Status::OK();
      }
      break;
    case DataType::kFloat64:
      if (v.is_numeric()) {
        AppendFloat64(v.AsDouble());
        return Status::OK();
      }
      break;
    case DataType::kString:
      if (!v.is_string()) break;
      AppendString(v.AsString());
      return Status::OK();
  }
  return Status::TypeError(StrCat("cannot append ", v.ToString(), " to ",
                                  DataTypeName(type_), " column"));
}

void Column::AppendNull() {
  EnsureValidity();
  switch (type_) {
    case DataType::kBool:
      Bools().push_back(0);
      break;
    case DataType::kInt64:
      Ints().push_back(0);
      break;
    case DataType::kFloat64:
      Doubles().push_back(0.0);
      break;
    case DataType::kString:
      Strings().emplace_back();
      break;
  }
  validity_.push_back(0);
  ++null_count_;
}

Status Column::SetValue(int64_t i, const Value& v) {
  if (v.is_null()) {
    SetNull(i);
    return Status::OK();
  }
  switch (type_) {
    case DataType::kBool:
      if (!v.is_bool()) break;
      SetBool(i, v.AsBool());
      return Status::OK();
    case DataType::kInt64:
      if (!v.is_int64()) break;
      SetInt64(i, v.AsInt64());
      return Status::OK();
    case DataType::kFloat64:
      if (!v.is_numeric()) break;
      SetFloat64(i, v.AsDouble());
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) break;
      SetString(i, v.AsString());
      return Status::OK();
  }
  return Status::TypeError(StrCat("cannot store ", v.ToString(), " in ",
                                  DataTypeName(type_), " column"));
}

void Column::SetNull(int64_t i) {
  EnsureValidity();
  uint8_t& v = validity_[static_cast<size_t>(i)];
  null_count_ += (v != 0);
  v = 0;
}

void Column::AppendRows(const Column& src, const std::vector<int64_t>& rows) {
  const bool nulls = src.has_nulls();
  auto gather = [&](auto& dst, const auto& vals, auto canonical) {
    for (int64_t r : rows) {
      if (nulls && src.IsNull(r)) {
        AppendNull();
      } else {
        dst.push_back(canonical(vals[static_cast<size_t>(r)]));
        NoteAppended();
      }
    }
  };
  auto same = [](const auto& v) { return v; };
  switch (type_) {
    case DataType::kBool:
      gather(Bools(), src.bools(), [](uint8_t b) -> uint8_t { return b != 0; });
      break;
    case DataType::kInt64:
      gather(Ints(), src.ints(), same);
      break;
    case DataType::kFloat64:
      gather(Doubles(), src.doubles(), same);
      break;
    case DataType::kString:
      gather(Strings(), src.strings(), same);
      break;
  }
}

void Column::Reserve(int64_t n) {
  std::visit([n](auto& v) { v.reserve(static_cast<size_t>(n)); }, data_);
}

Column Column::Slice(int64_t offset, int64_t length) const {
  Column out(type_);
  std::visit(
      [&](const auto& src) {
        auto& dst = std::get<std::decay_t<decltype(src)>>(out.data_);
        dst.assign(src.begin() + offset, src.begin() + offset + length);
      },
      data_);
  if (!validity_.empty()) {
    out.validity_.assign(validity_.begin() + offset,
                         validity_.begin() + offset + length);
    out.RecountNulls();
  }
  return out;
}

Column Column::Take(const std::vector<int64_t>& indices) const {
  Column out(type_);
  std::visit(
      [&](const auto& src) {
        auto& dst = std::get<std::decay_t<decltype(src)>>(out.data_);
        dst.reserve(indices.size());
        for (int64_t i : indices) dst.push_back(src[static_cast<size_t>(i)]);
      },
      data_);
  if (!validity_.empty()) {
    out.validity_.reserve(indices.size());
    for (int64_t i : indices) out.validity_.push_back(validity_[static_cast<size_t>(i)]);
    out.RecountNulls();
  }
  return out;
}

Status Column::AppendColumn(const Column& other) {
  if (other.type_ != type_) {
    return Status::TypeError(StrCat("append column type mismatch: ",
                                    DataTypeName(type_), " vs ",
                                    DataTypeName(other.type_)));
  }
  if (!other.validity_.empty() || !validity_.empty()) {
    EnsureValidity();
    if (other.validity_.empty()) {
      validity_.insert(validity_.end(), static_cast<size_t>(other.size()), 1);
    } else {
      validity_.insert(validity_.end(), other.validity_.begin(),
                       other.validity_.end());
      null_count_ += other.null_count_;
    }
  }
  std::visit(
      [&](auto& dst) {
        const auto& src = std::get<std::decay_t<decltype(dst)>>(other.data_);
        dst.insert(dst.end(), src.begin(), src.end());
      },
      data_);
  return Status::OK();
}

int64_t Column::ByteSize() const {
  int64_t bytes = static_cast<int64_t>(validity_.size());
  if (type_ == DataType::kString) {
    for (const std::string& s : strings()) {
      bytes += static_cast<int64_t>(s.size()) + FixedWidth(type_);
    }
    return bytes;
  }
  return bytes + size() * FixedWidth(type_);
}

bool Column::Equals(const Column& other) const {
  if (type_ != other.type_ || size() != other.size()) return false;
  for (int64_t i = 0; i < size(); ++i) {
    if (IsNull(i) != other.IsNull(i)) return false;
    if (!IsNull(i) && GetValue(i) != other.GetValue(i)) return false;
  }
  return true;
}

uint64_t Column::HashAt(int64_t i) const {
  if (IsNull(i)) return 0x6E756C6CULL;
  size_t idx = static_cast<size_t>(i);
  switch (type_) {
    case DataType::kBool:
      return bools()[idx] ? 0x74727565ULL : 0x66616C73ULL;
    case DataType::kInt64:
      return HashInt64(static_cast<uint64_t>(ints()[idx]));
    case DataType::kFloat64:
      return GetValue(i).Hash();
    case DataType::kString:
      return HashString(strings()[idx]);
  }
  return 0;
}

}  // namespace nexus
