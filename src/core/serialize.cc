#include "core/serialize.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "common/hash.h"
#include "common/logging.h"
#include "common/str_util.h"

namespace nexus {

// ---------------------------------------------------------------------------
// Generic s-expression layer.
// ---------------------------------------------------------------------------

namespace {

struct Sexpr {
  enum class Kind { kList, kSymbol, kString, kInt, kFloat, kBlob };
  Kind kind = Kind::kList;
  std::vector<Sexpr> items;  // kList
  std::string text;          // kSymbol / kString / kBlob (raw bytes)
  int64_t i = 0;             // kInt
  double f = 0.0;            // kFloat

  static Sexpr List(std::vector<Sexpr> items) {
    Sexpr s;
    s.kind = Kind::kList;
    s.items = std::move(items);
    return s;
  }
  static Sexpr Sym(std::string t) {
    Sexpr s;
    s.kind = Kind::kSymbol;
    s.text = std::move(t);
    return s;
  }
  static Sexpr Str(std::string t) {
    Sexpr s;
    s.kind = Kind::kString;
    s.text = std::move(t);
    return s;
  }
  static Sexpr Int(int64_t v) {
    Sexpr s;
    s.kind = Kind::kInt;
    s.i = v;
    return s;
  }
  static Sexpr Float(double v) {
    Sexpr s;
    s.kind = Kind::kFloat;
    s.f = v;
    return s;
  }
  static Sexpr Blob(std::string bytes) {
    Sexpr s;
    s.kind = Kind::kBlob;
    s.text = std::move(bytes);
    return s;
  }

  bool is_list() const { return kind == Kind::kList; }
  bool is_symbol() const { return kind == Kind::kSymbol; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_int() const { return kind == Kind::kInt; }
  bool is_float() const { return kind == Kind::kFloat; }
  bool is_blob() const { return kind == Kind::kBlob; }
  double as_number() const { return is_int() ? static_cast<double>(i) : f; }
};

void WriteSexpr(const Sexpr& s, std::string* out) {
  switch (s.kind) {
    case Sexpr::Kind::kList: {
      out->push_back('(');
      for (size_t i = 0; i < s.items.size(); ++i) {
        if (i > 0) out->push_back(' ');
        WriteSexpr(s.items[i], out);
      }
      out->push_back(')');
      return;
    }
    case Sexpr::Kind::kSymbol:
      out->append(s.text);
      return;
    case Sexpr::Kind::kString:
      out->push_back('"');
      out->append(EscapeString(s.text));
      out->push_back('"');
      return;
    case Sexpr::Kind::kInt:
      out->append(StrCat(s.i));
      return;
    case Sexpr::Kind::kFloat: {
      // %.17g guarantees float64 round-trip; mark as float with a decimal
      // point or exponent so the reader keeps the kind. Non-finite values
      // carry a sign (+inf, -inf, +nan) so the reader takes them for
      // numbers, not symbols.
      std::string t = FormatDouble(s.f, 17);
      if (std::isnan(s.f) || t == "inf") {
        t.insert(0, "+");
      } else if (t.find('.') == std::string::npos &&
                 t.find('e') == std::string::npos && t != "-inf") {
        t += ".0";
      }
      out->append(t);
      return;
    }
    case Sexpr::Kind::kBlob:
      // Netstring-style raw-byte literal: the length prefix makes the
      // payload 8-bit clean without any escaping (it may contain NUL, ')',
      // quotes — the parser consumes exactly `len` bytes).
      out->push_back('#');
      out->append(StrCat(static_cast<int64_t>(s.text.size())));
      out->push_back(':');
      out->append(s.text);
      return;
  }
}

class SexprParser {
 public:
  explicit SexprParser(std::string_view input) : input_(input) {}

  Result<Sexpr> Parse() {
    NEXUS_ASSIGN_OR_RETURN(Sexpr s, ParseOne());
    SkipSpace();
    if (pos_ != input_.size()) {
      return Status::SerializationError(
          StrCat("trailing input at offset ", pos_));
    }
    return s;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  Result<Sexpr> ParseOne() {
    SkipSpace();
    if (pos_ >= input_.size()) {
      return Status::SerializationError("unexpected end of input");
    }
    char c = input_[pos_];
    if (c == '(') {
      // Bounded so hostile input fails here rather than overflowing the
      // stack (in this recursion, in the tree walks and in ~Sexpr).
      if (depth_ == kMaxParseDepth) {
        return Status::SerializationError(
            StrCat("lists nested deeper than ", kMaxParseDepth, " at offset ",
                   pos_));
      }
      ++pos_;
      ++depth_;
      std::vector<Sexpr> items;
      while (true) {
        SkipSpace();
        if (pos_ >= input_.size()) {
          return Status::SerializationError("unterminated list");
        }
        if (input_[pos_] == ')') {
          ++pos_;
          --depth_;
          return Sexpr::List(std::move(items));
        }
        NEXUS_ASSIGN_OR_RETURN(Sexpr item, ParseOne());
        items.push_back(std::move(item));
      }
    }
    if (c == '"') return ParseString();
    if (c == '#') return ParseBlob();
    if (c == '-' || c == '+' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumberOrSymbol();
    }
    return ParseSymbol();
  }

  Result<Sexpr> ParseBlob() {
    ++pos_;  // '#'
    size_t start = pos_;
    while (pos_ < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || pos_ >= input_.size() || input_[pos_] != ':') {
      return Status::SerializationError("malformed blob length prefix");
    }
    unsigned long long len =
        std::strtoull(std::string(input_.substr(start, pos_ - start)).c_str(),
                      nullptr, 10);
    ++pos_;  // ':'
    if (len > input_.size() - pos_) {
      return Status::SerializationError("blob length exceeds input");
    }
    Sexpr s = Sexpr::Blob(std::string(input_.substr(pos_, len)));
    pos_ += len;
    return s;
  }

  Result<Sexpr> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < input_.size()) {
      char c = input_[pos_++];
      if (c == '"') return Sexpr::Str(std::move(out));
      if (c == '\\' && pos_ < input_.size()) {
        char e = input_[pos_++];
        switch (e) {
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          default:
            out.push_back(e);
        }
        continue;
      }
      out.push_back(c);
    }
    return Status::SerializationError("unterminated string literal");
  }

  Result<Sexpr> ParseNumberOrSymbol() {
    size_t start = pos_;
    while (pos_ < input_.size() && !std::isspace(static_cast<unsigned char>(input_[pos_])) &&
           input_[pos_] != '(' && input_[pos_] != ')') {
      ++pos_;
    }
    std::string tok(input_.substr(start, pos_ - start));
    if (tok == "-" || tok == "+") return Sexpr::Sym(std::move(tok));
    char* end = nullptr;
    if (tok.find('.') == std::string::npos && tok.find('e') == std::string::npos &&
        tok.find("inf") == std::string::npos && tok.find("nan") == std::string::npos) {
      long long v = std::strtoll(tok.c_str(), &end, 10);
      if (end && *end == '\0') return Sexpr::Int(v);
    }
    double d = std::strtod(tok.c_str(), &end);
    if (end && *end == '\0') return Sexpr::Float(d);
    return Sexpr::Sym(std::move(tok));
  }

  Result<Sexpr> ParseSymbol() {
    size_t start = pos_;
    while (pos_ < input_.size() && !std::isspace(static_cast<unsigned char>(input_[pos_])) &&
           input_[pos_] != '(' && input_[pos_] != ')' && input_[pos_] != '"') {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::SerializationError(
          StrCat("unexpected character '", input_[pos_], "' at offset ", pos_));
    }
    return Sexpr::Sym(std::string(input_.substr(start, pos_ - start)));
  }

  std::string_view input_;
  size_t pos_ = 0;
  int depth_ = 0;
};

Status Expect(const Sexpr& s, size_t min_items, const char* what) {
  if (!s.is_list() || s.items.size() < min_items || !s.items[0].is_symbol()) {
    return Status::SerializationError(StrCat("malformed ", what, " node"));
  }
  return Status::OK();
}

Result<std::string> AsString(const Sexpr& s, const char* what) {
  if (!s.is_string()) {
    return Status::SerializationError(StrCat("expected string for ", what));
  }
  return s.text;
}

Result<int64_t> AsInt(const Sexpr& s, const char* what) {
  if (!s.is_int()) {
    return Status::SerializationError(StrCat("expected integer for ", what));
  }
  return s.i;
}

// ---------------------------------------------------------------------------
// Expressions.
// ---------------------------------------------------------------------------

Sexpr ExprToSexpr(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = e.literal();
      if (v.is_null()) return Sexpr::List({Sexpr::Sym("null")});
      if (v.is_bool()) {
        return Sexpr::List({Sexpr::Sym(v.AsBool() ? "true" : "false")});
      }
      if (v.is_int64()) {
        return Sexpr::List({Sexpr::Sym("i64"), Sexpr::Int(v.AsInt64())});
      }
      if (v.is_float64()) {
        return Sexpr::List({Sexpr::Sym("f64"), Sexpr::Float(v.AsFloat64())});
      }
      return Sexpr::List({Sexpr::Sym("str"), Sexpr::Str(v.AsString())});
    }
    case ExprKind::kColumnRef:
      return Sexpr::List({Sexpr::Sym("col"), Sexpr::Str(e.column_name())});
    case ExprKind::kUnary:
      return Sexpr::List(
          {Sexpr::Sym(UnaryOpName(e.unary_op())), ExprToSexpr(*e.child(0))});
    case ExprKind::kBinary:
      return Sexpr::List({Sexpr::Sym(BinaryOpName(e.binary_op())),
                          ExprToSexpr(*e.child(0)), ExprToSexpr(*e.child(1))});
    case ExprKind::kFuncCall: {
      std::vector<Sexpr> items = {Sexpr::Sym("call"), Sexpr::Str(e.func_name())};
      for (const ExprPtr& c : e.children()) items.push_back(ExprToSexpr(*c));
      return Sexpr::List(std::move(items));
    }
    case ExprKind::kCast:
      return Sexpr::List({Sexpr::Sym("cast"),
                          Sexpr::Sym(DataTypeName(e.cast_target())),
                          ExprToSexpr(*e.child(0))});
  }
  return Sexpr::List({});
}

Result<ExprPtr> ExprFromSexpr(const Sexpr& s) {
  NEXUS_RETURN_NOT_OK(Expect(s, 1, "expression"));
  const std::string& head = s.items[0].text;
  // Heads that require an argument item (guarded before the [1] accesses).
  if ((head == "i64" || head == "f64" || head == "str" || head == "col" ||
       head == "call") &&
      s.items.size() < 2) {
    return Status::SerializationError(StrCat("malformed ", head, " node"));
  }
  if (head == "null") return Expr::Literal(Value::Null());
  if (head == "true") return Expr::Literal(Value::Bool(true));
  if (head == "false") return Expr::Literal(Value::Bool(false));
  if (head == "i64") {
    NEXUS_ASSIGN_OR_RETURN(int64_t v, AsInt(s.items[1], "i64 literal"));
    return Expr::Literal(Value::Int64(v));
  }
  if (head == "f64") {
    if (s.items.size() < 2 || (!s.items[1].is_float() && !s.items[1].is_int())) {
      return Status::SerializationError("malformed f64 literal");
    }
    return Expr::Literal(Value::Float64(s.items[1].as_number()));
  }
  if (head == "str") {
    NEXUS_ASSIGN_OR_RETURN(std::string v, AsString(s.items[1], "str literal"));
    return Expr::Literal(Value::String(std::move(v)));
  }
  if (head == "col") {
    NEXUS_ASSIGN_OR_RETURN(std::string v, AsString(s.items[1], "column name"));
    return Expr::ColumnRef(std::move(v));
  }
  if (head == "call") {
    NEXUS_ASSIGN_OR_RETURN(std::string fn, AsString(s.items[1], "function name"));
    std::vector<ExprPtr> args;
    for (size_t i = 2; i < s.items.size(); ++i) {
      NEXUS_ASSIGN_OR_RETURN(ExprPtr a, ExprFromSexpr(s.items[i]));
      args.push_back(std::move(a));
    }
    return Expr::FuncCall(std::move(fn), std::move(args));
  }
  if (head == "cast") {
    if (s.items.size() != 3 || !s.items[1].is_symbol()) {
      return Status::SerializationError("malformed cast");
    }
    NEXUS_ASSIGN_OR_RETURN(DataType t, DataTypeFromName(s.items[1].text));
    NEXUS_ASSIGN_OR_RETURN(ExprPtr c, ExprFromSexpr(s.items[2]));
    return Expr::Cast(t, std::move(c));
  }
  if (auto u = UnaryOpFromName(head); u.ok()) {
    if (s.items.size() != 2) {
      return Status::SerializationError("malformed unary expression");
    }
    NEXUS_ASSIGN_OR_RETURN(ExprPtr c, ExprFromSexpr(s.items[1]));
    return Expr::Unary(u.ValueOrDie(), std::move(c));
  }
  if (auto b = BinaryOpFromName(head); b.ok()) {
    if (s.items.size() != 3) {
      return Status::SerializationError("malformed binary expression");
    }
    NEXUS_ASSIGN_OR_RETURN(ExprPtr l, ExprFromSexpr(s.items[1]));
    NEXUS_ASSIGN_OR_RETURN(ExprPtr r, ExprFromSexpr(s.items[2]));
    return Expr::Binary(b.ValueOrDie(), std::move(l), std::move(r));
  }
  return Status::SerializationError(StrCat("unknown expression head: ", head));
}

// ---------------------------------------------------------------------------
// NXB1: binary columnar dataset blocks.
//
// Layout (all integers little-endian):
//   "NXB1"  u16 version  u8 flags(bit0=array)  u16 nfields
//   nfields × { u8 type  u8 is_dim  u16 name_len  name }
//   [array]  u16 ndims  ndims × u64 chunk_size      (array()->dims() order)
//   u64 nrows
//   nfields × column block:
//     u8 has_nulls  [null bitmap ceil(nrows/8), bit i set = row i null]
//     u8 encoding   u32 payload_len  payload
//
// Payloads by (type, encoding) — null slots carry canonical defaults
// (0 / 0.0 / false / "") so equal datasets encode to equal bytes:
//   bool/raw     packed value bits, ceil(n/8)
//   int64/raw    8n bytes, straight memcpy of the column vector
//   int64/rle    u32 nruns, nruns × { u32 len  i64 value }
//   int64/for    i64 min  u8 bit_width  bit-packed (v - min) deltas
//   f64/raw      8n bytes, memcpy
//   f64/rle      u32 nruns, nruns × { u32 len  f64 value }   (bit-equality)
//   string/raw   (n+1) × u32 cumulative offsets, then the byte blob
//   string/dict  u32 ndict, ndict × { u32 len  bytes },
//                u8 code_width(1|2|4), n × code   (first-occurrence order)
//
// The encoder computes every candidate's size and keeps the smallest
// (ties prefer raw, then RLE) — deterministically, so a given dataset
// always encodes to the same bytes and fingerprints are stable. The
// decoder bounds-checks every read and rejects trailing bytes.
// ---------------------------------------------------------------------------

constexpr char kNxb1Magic[4] = {'N', 'X', 'B', '1'};
constexpr uint16_t kNxb1Version = 1;
constexpr uint8_t kNxb1FlagArray = 0x01;

constexpr uint8_t kEncRaw = 0;
constexpr uint8_t kEncRle = 1;
constexpr uint8_t kEncDict = 2;
constexpr uint8_t kEncFor = 3;

// A corrupt row count must not drive a giant allocation before any payload
// bytes are validated: everything in this system is an in-memory dataset,
// so a frame claiming more rows than this is corruption, not data.
constexpr uint64_t kMaxWireRows = uint64_t{1} << 28;

class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}
  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) {
    U8(static_cast<uint8_t>(v & 0xff));
    U8(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Bytes(const void* p, size_t n) {
    out_->append(static_cast<const char*>(p), n);
  }

 private:
  std::string* out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view in) : in_(in) {}

  Result<uint8_t> U8() {
    NEXUS_RETURN_NOT_OK(Need(1));
    return static_cast<uint8_t>(in_[pos_++]);
  }
  Result<uint16_t> U16() {
    NEXUS_RETURN_NOT_OK(Need(2));
    uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v |= static_cast<uint16_t>(static_cast<uint8_t>(in_[pos_++])) << (8 * i);
    }
    return v;
  }
  Result<uint32_t> U32() {
    NEXUS_RETURN_NOT_OK(Need(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(in_[pos_++])) << (8 * i);
    }
    return v;
  }
  Result<uint64_t> U64() {
    NEXUS_RETURN_NOT_OK(Need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(in_[pos_++])) << (8 * i);
    }
    return v;
  }
  Result<int64_t> I64() {
    NEXUS_ASSIGN_OR_RETURN(uint64_t v, U64());
    return static_cast<int64_t>(v);
  }
  Result<double> F64() {
    NEXUS_ASSIGN_OR_RETURN(uint64_t bits, U64());
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  Result<std::string_view> Bytes(size_t n) {
    NEXUS_RETURN_NOT_OK(Need(n));
    std::string_view v = in_.substr(pos_, n);
    pos_ += n;
    return v;
  }
  size_t remaining() const { return in_.size() - pos_; }
  bool done() const { return pos_ == in_.size(); }

 private:
  Status Need(size_t n) {
    if (in_.size() - pos_ < n) {
      return Status::SerializationError(
          StrCat("truncated NXB1 buffer at offset ", pos_));
    }
    return Status::OK();
  }
  std::string_view in_;
  size_t pos_ = 0;
};

void PackBits(const std::vector<uint64_t>& vals, int width, ByteWriter* w) {
  unsigned __int128 acc = 0;
  int bits = 0;
  for (uint64_t v : vals) {
    acc |= static_cast<unsigned __int128>(v) << bits;
    bits += width;
    while (bits >= 8) {
      w->U8(static_cast<uint8_t>(acc & 0xff));
      acc >>= 8;
      bits -= 8;
    }
  }
  if (bits > 0) w->U8(static_cast<uint8_t>(acc & 0xff));
}

Result<std::vector<uint64_t>> UnpackBits(std::string_view bytes, size_t n,
                                         int width) {
  if (bytes.size() != (n * static_cast<size_t>(width) + 7) / 8) {
    return Status::SerializationError("bit-packed payload has wrong length");
  }
  std::vector<uint64_t> out;
  out.reserve(n);
  unsigned __int128 acc = 0;
  int bits = 0;
  size_t bi = 0;
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  for (size_t i = 0; i < n; ++i) {
    while (bits < width) {
      acc |= static_cast<unsigned __int128>(static_cast<uint8_t>(bytes[bi++]))
             << bits;
      bits += 8;
    }
    out.push_back(static_cast<uint64_t>(acc) & mask);
    acc >>= width;
    bits -= width;
  }
  return out;
}

// --- per-type payload encoders; each returns the encoding it chose ---------

uint8_t EncodeBoolPayload(const Column& col, bool has_nulls, int64_t n,
                          std::string* payload) {
  std::string bits(static_cast<size_t>((n + 7) / 8), '\0');
  const std::vector<uint8_t>& v = col.bools();
  for (int64_t i = 0; i < n; ++i) {
    if (v[static_cast<size_t>(i)] != 0 && !(has_nulls && col.IsNull(i))) {
      bits[static_cast<size_t>(i >> 3)] |= static_cast<char>(1 << (i & 7));
    }
  }
  payload->assign(bits);
  return kEncRaw;
}

uint8_t EncodeInt64Payload(const Column& col, bool has_nulls, int64_t n,
                           std::string* payload) {
  std::vector<int64_t> canon;
  const std::vector<int64_t>* src = &col.ints();
  if (has_nulls) {
    canon = col.ints();
    for (int64_t i = 0; i < n; ++i) {
      if (col.IsNull(i)) canon[static_cast<size_t>(i)] = 0;
    }
    src = &canon;
  }
  ByteWriter w(payload);
  if (n == 0) return kEncRaw;
  const std::vector<int64_t>& v = *src;
  const size_t un = static_cast<size_t>(n);

  size_t nruns = 1;
  for (size_t i = 1; i < un; ++i) {
    if (v[i] != v[i - 1]) ++nruns;
  }
  int64_t mn = v[0], mx = v[0];
  for (size_t i = 1; i < un; ++i) {
    mn = std::min(mn, v[i]);
    mx = std::max(mx, v[i]);
  }
  const uint64_t range =
      static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
  const int width = range == 0 ? 0 : std::bit_width(range);
  const size_t raw_size = 8 * un;
  const size_t rle_size = 4 + 12 * nruns;
  const size_t for_size = 9 + (un * static_cast<size_t>(width) + 7) / 8;

  if (raw_size <= rle_size && raw_size <= for_size) {
    if constexpr (std::endian::native == std::endian::little) {
      w.Bytes(v.data(), raw_size);
    } else {
      for (int64_t x : v) w.I64(x);
    }
    return kEncRaw;
  }
  if (rle_size <= for_size) {
    w.U32(static_cast<uint32_t>(nruns));
    size_t i = 0;
    while (i < un) {
      size_t j = i;
      while (j < un && v[j] == v[i]) ++j;
      w.U32(static_cast<uint32_t>(j - i));
      w.I64(v[i]);
      i = j;
    }
    return kEncRle;
  }
  w.I64(mn);
  w.U8(static_cast<uint8_t>(width));
  if (width > 0) {
    std::vector<uint64_t> deltas;
    deltas.reserve(un);
    for (int64_t x : v) {
      deltas.push_back(static_cast<uint64_t>(x) - static_cast<uint64_t>(mn));
    }
    PackBits(deltas, width, &w);
  }
  return kEncFor;
}

uint8_t EncodeFloat64Payload(const Column& col, bool has_nulls, int64_t n,
                             std::string* payload) {
  std::vector<double> canon;
  const std::vector<double>* src = &col.doubles();
  if (has_nulls) {
    canon = col.doubles();
    for (int64_t i = 0; i < n; ++i) {
      if (col.IsNull(i)) canon[static_cast<size_t>(i)] = 0.0;
    }
    src = &canon;
  }
  ByteWriter w(payload);
  if (n == 0) return kEncRaw;
  const std::vector<double>& v = *src;
  const size_t un = static_cast<size_t>(n);
  // Runs compare bit patterns so NaN-valued runs stay deterministic.
  auto bits_of = [](double d) {
    uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    return b;
  };
  size_t nruns = 1;
  for (size_t i = 1; i < un; ++i) {
    if (bits_of(v[i]) != bits_of(v[i - 1])) ++nruns;
  }
  const size_t raw_size = 8 * un;
  const size_t rle_size = 4 + 12 * nruns;
  if (raw_size <= rle_size) {
    if constexpr (std::endian::native == std::endian::little) {
      w.Bytes(v.data(), raw_size);
    } else {
      for (double x : v) w.F64(x);
    }
    return kEncRaw;
  }
  w.U32(static_cast<uint32_t>(nruns));
  size_t i = 0;
  while (i < un) {
    size_t j = i;
    while (j < un && bits_of(v[j]) == bits_of(v[i])) ++j;
    w.U32(static_cast<uint32_t>(j - i));
    w.F64(v[i]);
    i = j;
  }
  return kEncRle;
}

uint8_t EncodeStringPayload(const Column& col, bool has_nulls, int64_t n,
                            std::string* payload) {
  const std::vector<std::string>& stored = col.strings();
  std::vector<std::string_view> canon;
  canon.reserve(static_cast<size_t>(n));
  size_t blob_len = 0;
  for (int64_t i = 0; i < n; ++i) {
    std::string_view sv = (has_nulls && col.IsNull(i))
                              ? std::string_view{}
                              : std::string_view(stored[static_cast<size_t>(i)]);
    blob_len += sv.size();
    canon.push_back(sv);
  }
  // u32 offsets cap a single column's blob at 4 GiB — far beyond anything
  // the simulated wire carries.
  NEXUS_CHECK(blob_len < UINT32_MAX);

  std::unordered_map<std::string_view, uint32_t> dict;
  std::vector<std::string_view> dict_order;
  std::vector<uint32_t> codes;
  codes.reserve(canon.size());
  size_t dict_blob = 0;
  for (std::string_view sv : canon) {
    auto [it, inserted] =
        dict.emplace(sv, static_cast<uint32_t>(dict_order.size()));
    if (inserted) {
      dict_order.push_back(sv);
      dict_blob += sv.size();
    }
    codes.push_back(it->second);
  }
  const size_t ndict = dict_order.size();
  const int code_width = ndict <= 256 ? 1 : ndict <= 65536 ? 2 : 4;
  const size_t raw_size = 4 * (canon.size() + 1) + blob_len;
  const size_t dict_size = 4 + 4 * ndict + dict_blob + 1 +
                           canon.size() * static_cast<size_t>(code_width);

  ByteWriter w(payload);
  if (raw_size <= dict_size) {
    uint32_t off = 0;
    w.U32(0);
    for (std::string_view sv : canon) {
      off += static_cast<uint32_t>(sv.size());
      w.U32(off);
    }
    for (std::string_view sv : canon) w.Bytes(sv.data(), sv.size());
    return kEncRaw;
  }
  w.U32(static_cast<uint32_t>(ndict));
  for (std::string_view sv : dict_order) {
    w.U32(static_cast<uint32_t>(sv.size()));
    w.Bytes(sv.data(), sv.size());
  }
  w.U8(static_cast<uint8_t>(code_width));
  for (uint32_t c : codes) {
    for (int b = 0; b < code_width; ++b) {
      w.U8(static_cast<uint8_t>((c >> (8 * b)) & 0xff));
    }
  }
  return kEncDict;
}

void EncodeColumn(const Column& col, int64_t n, ByteWriter* w) {
  const bool has_nulls = col.null_count() > 0;
  w->U8(has_nulls ? 1 : 0);
  if (has_nulls) {
    std::string bitmap(static_cast<size_t>((n + 7) / 8), '\0');
    for (int64_t i = 0; i < n; ++i) {
      if (col.IsNull(i)) {
        bitmap[static_cast<size_t>(i >> 3)] |= static_cast<char>(1 << (i & 7));
      }
    }
    w->Bytes(bitmap.data(), bitmap.size());
  }
  std::string payload;
  uint8_t enc = kEncRaw;
  switch (col.type()) {
    case DataType::kBool:
      enc = EncodeBoolPayload(col, has_nulls, n, &payload);
      break;
    case DataType::kInt64:
      enc = EncodeInt64Payload(col, has_nulls, n, &payload);
      break;
    case DataType::kFloat64:
      enc = EncodeFloat64Payload(col, has_nulls, n, &payload);
      break;
    case DataType::kString:
      enc = EncodeStringPayload(col, has_nulls, n, &payload);
      break;
  }
  w->U8(enc);
  w->U32(static_cast<uint32_t>(payload.size()));
  w->Bytes(payload.data(), payload.size());
}

std::string EncodeNxb1(const Dataset& data) {
  std::string out;
  ByteWriter w(&out);
  TablePtr table = data.AsTable().ValueOrDie();
  const Schema& schema = *table->schema();
  w.Bytes(kNxb1Magic, sizeof kNxb1Magic);
  w.U16(kNxb1Version);
  w.U8(data.is_array() ? kNxb1FlagArray : 0);
  w.U16(static_cast<uint16_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    NEXUS_CHECK(f.name.size() <= UINT16_MAX);
    w.U8(static_cast<uint8_t>(f.type));
    w.U8(f.is_dimension ? 1 : 0);
    w.U16(static_cast<uint16_t>(f.name.size()));
    w.Bytes(f.name.data(), f.name.size());
  }
  if (data.is_array()) {
    const auto& dims = data.array()->dims();
    w.U16(static_cast<uint16_t>(dims.size()));
    for (const DimensionSpec& d : dims) {
      w.U64(static_cast<uint64_t>(d.chunk_size));
    }
  }
  w.U64(static_cast<uint64_t>(table->num_rows()));
  for (int c = 0; c < table->num_columns(); ++c) {
    EncodeColumn(table->column(c), table->num_rows(), &w);
  }
  return out;
}

// --- per-type payload decoders ---------------------------------------------

Result<Column> DecodeBoolPayload(std::string_view payload, uint8_t enc,
                                 size_t n) {
  if (enc != kEncRaw) {
    return Status::SerializationError("bool column has unknown encoding");
  }
  if (payload.size() != (n + 7) / 8) {
    return Status::SerializationError("bool payload has wrong length");
  }
  std::vector<uint8_t> v(n, 0);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (static_cast<uint8_t>(payload[i >> 3]) >> (i & 7)) & 1;
  }
  return Column::FromBool(std::move(v));
}

Result<Column> DecodeInt64Payload(std::string_view payload, uint8_t enc,
                                  size_t n) {
  std::vector<int64_t> v;
  if (enc == kEncRaw) {
    if (payload.size() != 8 * n) {
      return Status::SerializationError("int64 raw payload has wrong length");
    }
    v.resize(n);
    if constexpr (std::endian::native == std::endian::little) {
      if (n > 0) std::memcpy(v.data(), payload.data(), payload.size());
    } else {
      ByteReader pr(payload);
      for (size_t i = 0; i < n; ++i) v[i] = pr.I64().ValueOrDie();
    }
    return Column::FromInt64(std::move(v));
  }
  ByteReader pr(payload);
  if (enc == kEncRle) {
    NEXUS_ASSIGN_OR_RETURN(uint32_t nruns, pr.U32());
    if (nruns > pr.remaining() / 12) {
      return Status::SerializationError("int64 RLE run count exceeds payload");
    }
    for (uint32_t r = 0; r < nruns; ++r) {
      NEXUS_ASSIGN_OR_RETURN(uint32_t len, pr.U32());
      NEXUS_ASSIGN_OR_RETURN(int64_t val, pr.I64());
      if (len > n - v.size()) {
        return Status::SerializationError("int64 RLE runs overflow row count");
      }
      v.insert(v.end(), len, val);
    }
    if (v.size() != n || !pr.done()) {
      return Status::SerializationError("int64 RLE runs do not cover rows");
    }
    return Column::FromInt64(std::move(v));
  }
  if (enc == kEncFor) {
    NEXUS_ASSIGN_OR_RETURN(int64_t mn, pr.I64());
    NEXUS_ASSIGN_OR_RETURN(uint8_t width, pr.U8());
    if (width > 64) {
      return Status::SerializationError("int64 FOR bit width out of range");
    }
    if (width == 0) {
      if (!pr.done()) {
        return Status::SerializationError("int64 FOR payload has extra bytes");
      }
      v.assign(n, mn);
      return Column::FromInt64(std::move(v));
    }
    NEXUS_ASSIGN_OR_RETURN(std::string_view packed, pr.Bytes(pr.remaining()));
    NEXUS_ASSIGN_OR_RETURN(std::vector<uint64_t> deltas,
                           UnpackBits(packed, n, width));
    v.reserve(n);
    for (uint64_t d : deltas) {
      v.push_back(static_cast<int64_t>(static_cast<uint64_t>(mn) + d));
    }
    return Column::FromInt64(std::move(v));
  }
  return Status::SerializationError("int64 column has unknown encoding");
}

Result<Column> DecodeFloat64Payload(std::string_view payload, uint8_t enc,
                                    size_t n) {
  std::vector<double> v;
  if (enc == kEncRaw) {
    if (payload.size() != 8 * n) {
      return Status::SerializationError("float64 raw payload has wrong length");
    }
    v.resize(n);
    if constexpr (std::endian::native == std::endian::little) {
      if (n > 0) std::memcpy(v.data(), payload.data(), payload.size());
    } else {
      ByteReader pr(payload);
      for (size_t i = 0; i < n; ++i) v[i] = pr.F64().ValueOrDie();
    }
    return Column::FromFloat64(std::move(v));
  }
  if (enc == kEncRle) {
    ByteReader pr(payload);
    NEXUS_ASSIGN_OR_RETURN(uint32_t nruns, pr.U32());
    if (nruns > pr.remaining() / 12) {
      return Status::SerializationError(
          "float64 RLE run count exceeds payload");
    }
    for (uint32_t r = 0; r < nruns; ++r) {
      NEXUS_ASSIGN_OR_RETURN(uint32_t len, pr.U32());
      NEXUS_ASSIGN_OR_RETURN(double val, pr.F64());
      if (len > n - v.size()) {
        return Status::SerializationError(
            "float64 RLE runs overflow row count");
      }
      v.insert(v.end(), len, val);
    }
    if (v.size() != n || !pr.done()) {
      return Status::SerializationError("float64 RLE runs do not cover rows");
    }
    return Column::FromFloat64(std::move(v));
  }
  return Status::SerializationError("float64 column has unknown encoding");
}

Result<Column> DecodeStringPayload(std::string_view payload, uint8_t enc,
                                   size_t n) {
  std::vector<std::string> v;
  ByteReader pr(payload);
  if (enc == kEncRaw) {
    if (payload.size() / 4 < n + 1) {
      return Status::SerializationError("string offset table exceeds payload");
    }
    std::vector<uint32_t> offsets(n + 1);
    for (size_t i = 0; i <= n; ++i) {
      NEXUS_ASSIGN_OR_RETURN(offsets[i], pr.U32());
    }
    if (offsets[0] != 0) {
      return Status::SerializationError("string offsets must start at 0");
    }
    NEXUS_ASSIGN_OR_RETURN(std::string_view blob, pr.Bytes(pr.remaining()));
    if (offsets[n] != blob.size()) {
      return Status::SerializationError("string blob length mismatch");
    }
    v.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (offsets[i + 1] < offsets[i]) {
        return Status::SerializationError("string offsets must be monotone");
      }
      v.emplace_back(blob.substr(offsets[i], offsets[i + 1] - offsets[i]));
    }
    return Column::FromString(std::move(v));
  }
  if (enc == kEncDict) {
    NEXUS_ASSIGN_OR_RETURN(uint32_t ndict, pr.U32());
    if (ndict > pr.remaining() / 4) {
      return Status::SerializationError("string dict size exceeds payload");
    }
    std::vector<std::string_view> dict(ndict);
    for (uint32_t i = 0; i < ndict; ++i) {
      NEXUS_ASSIGN_OR_RETURN(uint32_t len, pr.U32());
      NEXUS_ASSIGN_OR_RETURN(dict[i], pr.Bytes(len));
    }
    NEXUS_ASSIGN_OR_RETURN(uint8_t code_width, pr.U8());
    if (code_width != 1 && code_width != 2 && code_width != 4) {
      return Status::SerializationError("string dict code width invalid");
    }
    v.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      uint32_t code = 0;
      for (int b = 0; b < code_width; ++b) {
        NEXUS_ASSIGN_OR_RETURN(uint8_t byte, pr.U8());
        code |= static_cast<uint32_t>(byte) << (8 * b);
      }
      if (code >= ndict) {
        return Status::SerializationError("string dict code out of range");
      }
      v.emplace_back(dict[code]);
    }
    if (!pr.done()) {
      return Status::SerializationError("string dict payload has extra bytes");
    }
    return Column::FromString(std::move(v));
  }
  return Status::SerializationError("string column has unknown encoding");
}

Result<Column> DecodeColumn(ByteReader* r, DataType type, int64_t n) {
  NEXUS_ASSIGN_OR_RETURN(uint8_t has_nulls, r->U8());
  if (has_nulls > 1) {
    return Status::SerializationError("column null flag must be 0 or 1");
  }
  std::string_view null_bitmap;
  if (has_nulls != 0) {
    NEXUS_ASSIGN_OR_RETURN(null_bitmap,
                           r->Bytes(static_cast<size_t>((n + 7) / 8)));
  }
  NEXUS_ASSIGN_OR_RETURN(uint8_t enc, r->U8());
  NEXUS_ASSIGN_OR_RETURN(uint32_t payload_len, r->U32());
  NEXUS_ASSIGN_OR_RETURN(std::string_view payload, r->Bytes(payload_len));
  const size_t un = static_cast<size_t>(n);
  auto decode = [&]() -> Result<Column> {
    switch (type) {
      case DataType::kBool:
        return DecodeBoolPayload(payload, enc, un);
      case DataType::kInt64:
        return DecodeInt64Payload(payload, enc, un);
      case DataType::kFloat64:
        return DecodeFloat64Payload(payload, enc, un);
      case DataType::kString:
        return DecodeStringPayload(payload, enc, un);
    }
    return Status::SerializationError("unknown column type");
  };
  NEXUS_ASSIGN_OR_RETURN(Column out, decode());
  if (has_nulls != 0) {
    for (int64_t i = 0; i < n; ++i) {
      if ((static_cast<uint8_t>(null_bitmap[static_cast<size_t>(i >> 3)]) >>
           (i & 7)) &
          1) {
        out.SetNull(i);
      }
    }
  }
  return out;
}

// Reboxes a decoded table into the array it was shipped as (both wire
// forms). Chunk sizes and coordinates come off the wire, so the geometry is
// bounded before FromTable allocates a chunk: every chunk size must be
// positive, and one chunk's clipped volume may neither overflow nor exceed
// kMaxWireRows cells.
Result<Dataset> ArrayFromWire(const Table& table,
                              const std::vector<int64_t>& chunk_sizes) {
  const Schema& schema = *table.schema();
  std::vector<int> dim_cols = schema.DimensionIndices();
  if (dim_cols.size() != chunk_sizes.size()) {
    return Status::SerializationError("chunk list does not match dimensions");
  }
  std::vector<std::string> dim_names;
  uint64_t volume = 1;
  for (size_t d = 0; d < dim_cols.size(); ++d) {
    dim_names.push_back(schema.field(dim_cols[d]).name);
    if (chunk_sizes[d] <= 0) {
      return Status::SerializationError("array chunk size must be positive");
    }
    uint64_t extent = 1;
    const Column& coords = table.column(dim_cols[d]);
    if (coords.type() == DataType::kInt64 && table.num_rows() > 0) {
      auto [lo, hi] = std::minmax_element(coords.ints().begin(), coords.ints().end());
      // Unsigned difference is exact for any int64 pair.
      uint64_t span = static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
      uint64_t chunk = static_cast<uint64_t>(chunk_sizes[d]);
      extent = span < chunk ? span + 1 : chunk;
    }
    if (__builtin_mul_overflow(volume, extent, &volume) || volume > kMaxWireRows) {
      return Status::SerializationError("array chunk volume exceeds sanity bound");
    }
  }
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> arr,
                         NDArray::FromTable(table, dim_names, chunk_sizes));
  return Dataset(NDArrayPtr(std::move(arr)));
}

Result<Dataset> DecodeNxb1(std::string_view wire) {
  ByteReader r(wire);
  NEXUS_ASSIGN_OR_RETURN(std::string_view magic, r.Bytes(4));
  if (std::memcmp(magic.data(), kNxb1Magic, 4) != 0) {
    return Status::SerializationError("bad NXB1 magic");
  }
  NEXUS_ASSIGN_OR_RETURN(uint16_t version, r.U16());
  if (version != kNxb1Version) {
    return Status::SerializationError(
        StrCat("unsupported NXB1 version ", version));
  }
  NEXUS_ASSIGN_OR_RETURN(uint8_t flags, r.U8());
  if ((flags & ~kNxb1FlagArray) != 0) {
    return Status::SerializationError("unknown NXB1 flags");
  }
  const bool is_array = (flags & kNxb1FlagArray) != 0;
  NEXUS_ASSIGN_OR_RETURN(uint16_t nfields, r.U16());
  std::vector<Field> fields;
  fields.reserve(nfields);
  for (uint16_t i = 0; i < nfields; ++i) {
    NEXUS_ASSIGN_OR_RETURN(uint8_t type_code, r.U8());
    if (type_code > static_cast<uint8_t>(DataType::kString)) {
      return Status::SerializationError("unknown NXB1 field type");
    }
    NEXUS_ASSIGN_OR_RETURN(uint8_t is_dim, r.U8());
    if (is_dim > 1) {
      return Status::SerializationError("field dim flag must be 0 or 1");
    }
    NEXUS_ASSIGN_OR_RETURN(uint16_t name_len, r.U16());
    NEXUS_ASSIGN_OR_RETURN(std::string_view name, r.Bytes(name_len));
    fields.push_back(Field{std::string(name), static_cast<DataType>(type_code),
                           is_dim != 0});
  }
  std::vector<int64_t> chunk_sizes;
  if (is_array) {
    NEXUS_ASSIGN_OR_RETURN(uint16_t ndims, r.U16());
    chunk_sizes.reserve(ndims);
    for (uint16_t i = 0; i < ndims; ++i) {
      NEXUS_ASSIGN_OR_RETURN(uint64_t c, r.U64());
      chunk_sizes.push_back(static_cast<int64_t>(c));
    }
  }
  NEXUS_ASSIGN_OR_RETURN(uint64_t nrows, r.U64());
  if (nrows > kMaxWireRows) {
    return Status::SerializationError("NXB1 row count exceeds sanity bound");
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  std::vector<Column> columns;
  columns.reserve(schema->num_fields());
  for (int c = 0; c < schema->num_fields(); ++c) {
    NEXUS_ASSIGN_OR_RETURN(
        Column col,
        DecodeColumn(&r, schema->field(c).type, static_cast<int64_t>(nrows)));
    columns.push_back(std::move(col));
  }
  if (!r.done()) {
    return Status::SerializationError("trailing bytes after NXB1 columns");
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr table,
                         Table::Make(schema, std::move(columns)));
  if (!is_array) return Dataset(table);
  return ArrayFromWire(*table, chunk_sizes);
}

// ---------------------------------------------------------------------------
// Datasets.
// ---------------------------------------------------------------------------

Sexpr ValueToSexpr(const Value& v) {
  if (v.is_null()) return Sexpr::Sym("null");
  if (v.is_bool()) return Sexpr::Sym(v.AsBool() ? "true" : "false");
  if (v.is_int64()) return Sexpr::Int(v.AsInt64());
  if (v.is_float64()) return Sexpr::Float(v.AsFloat64());
  return Sexpr::Str(v.AsString());
}

Result<Value> ValueFromSexpr(const Sexpr& s, DataType want) {
  if (s.is_symbol()) {
    if (s.text == "null") return Value::Null();
    if (s.text == "true") return Value::Bool(true);
    if (s.text == "false") return Value::Bool(false);
    return Status::SerializationError(StrCat("bad value symbol: ", s.text));
  }
  if (s.is_int()) {
    return want == DataType::kFloat64 ? Value::Float64(static_cast<double>(s.i))
                                      : Value::Int64(s.i);
  }
  if (s.is_float()) return Value::Float64(s.f);
  if (s.is_string()) return Value::String(s.text);
  return Status::SerializationError("bad value");
}

Sexpr SchemaToSexpr(const Schema& schema) {
  std::vector<Sexpr> items = {Sexpr::Sym("schema")};
  for (const Field& f : schema.fields()) {
    std::vector<Sexpr> fitems = {Sexpr::Sym("field"), Sexpr::Str(f.name),
                                 Sexpr::Sym(DataTypeName(f.type))};
    if (f.is_dimension) fitems.push_back(Sexpr::Sym("dim"));
    items.push_back(Sexpr::List(std::move(fitems)));
  }
  return Sexpr::List(std::move(items));
}

Result<SchemaPtr> SchemaFromSexpr(const Sexpr& s) {
  NEXUS_RETURN_NOT_OK(Expect(s, 1, "schema"));
  if (s.items[0].text != "schema") {
    return Status::SerializationError("expected (schema ...)");
  }
  std::vector<Field> fields;
  for (size_t i = 1; i < s.items.size(); ++i) {
    const Sexpr& f = s.items[i];
    NEXUS_RETURN_NOT_OK(Expect(f, 3, "field"));
    NEXUS_ASSIGN_OR_RETURN(std::string name, AsString(f.items[1], "field name"));
    if (!f.items[2].is_symbol()) {
      return Status::SerializationError("field type must be a symbol");
    }
    NEXUS_ASSIGN_OR_RETURN(DataType type, DataTypeFromName(f.items[2].text));
    bool dim = f.items.size() > 3 && f.items[3].is_symbol() &&
               f.items[3].text == "dim";
    fields.push_back(Field{std::move(name), type, dim});
  }
  return Schema::Make(std::move(fields));
}

Sexpr DatasetToSexpr(const Dataset& data, WireFormat format) {
  if (format == WireFormat::kBinary) return Sexpr::Blob(EncodeNxb1(data));
  std::vector<Sexpr> items = {Sexpr::Sym("dataset")};
  TablePtr table = data.AsTable().ValueOrDie();
  items.push_back(SchemaToSexpr(*table->schema()));
  if (data.is_array()) {
    std::vector<Sexpr> chunks = {Sexpr::Sym("chunks")};
    for (const DimensionSpec& d : data.array()->dims()) {
      chunks.push_back(Sexpr::Int(d.chunk_size));
    }
    items.push_back(Sexpr::List(std::move(chunks)));
  }
  std::vector<Sexpr> rows = {Sexpr::Sym("rows")};
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    std::vector<Sexpr> row;
    row.reserve(static_cast<size_t>(table->num_columns()));
    for (int c = 0; c < table->num_columns(); ++c) {
      row.push_back(ValueToSexpr(table->At(r, c)));
    }
    rows.push_back(Sexpr::List(std::move(row)));
  }
  items.push_back(Sexpr::List(std::move(rows)));
  return Sexpr::List(std::move(items));
}

Result<Dataset> DatasetFromSexpr(const Sexpr& s) {
  if (s.is_blob()) return DecodeNxb1(s.text);
  NEXUS_RETURN_NOT_OK(Expect(s, 3, "dataset"));
  if (s.items[0].text != "dataset") {
    return Status::SerializationError("expected (dataset ...)");
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, SchemaFromSexpr(s.items[1]));
  size_t next = 2;
  std::vector<int64_t> chunk_sizes;
  bool is_array = false;
  if (s.items[next].is_list() && !s.items[next].items.empty() &&
      s.items[next].items[0].is_symbol() &&
      s.items[next].items[0].text == "chunks") {
    is_array = true;
    for (size_t i = 1; i < s.items[next].items.size(); ++i) {
      NEXUS_ASSIGN_OR_RETURN(int64_t c, AsInt(s.items[next].items[i], "chunk"));
      chunk_sizes.push_back(c);
    }
    ++next;
  }
  if (next >= s.items.size()) {
    return Status::SerializationError("dataset missing its rows section");
  }
  const Sexpr& rows = s.items[next];
  NEXUS_RETURN_NOT_OK(Expect(rows, 1, "rows"));
  if (rows.items[0].text != "rows") {
    return Status::SerializationError("expected (rows ...)");
  }
  TableBuilder builder(schema);
  std::vector<Value> row(static_cast<size_t>(schema->num_fields()));
  for (size_t r = 1; r < rows.items.size(); ++r) {
    const Sexpr& rs = rows.items[r];
    if (!rs.is_list() ||
        rs.items.size() != static_cast<size_t>(schema->num_fields())) {
      return Status::SerializationError(StrCat("row ", r, " has wrong arity"));
    }
    for (size_t c = 0; c < rs.items.size(); ++c) {
      NEXUS_ASSIGN_OR_RETURN(
          row[c], ValueFromSexpr(rs.items[c], schema->field(static_cast<int>(c)).type));
    }
    NEXUS_RETURN_NOT_OK(builder.AppendRow(row));
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr table, builder.Finish());
  if (!is_array) return Dataset(table);
  return ArrayFromWire(*table, chunk_sizes);
}

// ---------------------------------------------------------------------------
// Plans: a node is (name child... field...). The fields are written and read
// by walking the payload's field list (core/plan.h) with one writer and one
// reader per field shape, so nothing here names an operator.
// ---------------------------------------------------------------------------

Sexpr PlanToSexpr(const Plan& p, WireFormat format);
Result<PlanPtr> PlanFromSexpr(const Sexpr& s);

// Sequence items other than strings are written as lists of their parts.
template <class T>
constexpr bool kListItem = !std::is_same_v<std::remove_cvref_t<T>, std::string>;

// Calls `v` on each part of a list item: the fields of a struct that lists
// them, or the members of a pair or of a zipped tuple.
template <class V, class T>
void ForEachPart(V& v, T&& item) {
  if constexpr (requires { std::remove_cvref_t<T>::Fields(v, item); }) {
    std::remove_cvref_t<T>::Fields(v, item);
  } else {
    std::apply([&](auto&... part) { (v(part), ...); }, item);
  }
}

bool IsSymbol(const Sexpr& s, const char* text) {
  return s.is_symbol() && s.text == text;
}

bool HasHead(const Sexpr& s, const char* head) {
  return s.is_list() && !s.items.empty() && IsSymbol(s.items[0], head);
}

class FieldWriter {
 public:
  FieldWriter(WireFormat format, std::vector<Sexpr>* out)
      : format_(format), out_(out) {}

  void operator()(const std::string& s) { Emit(Sexpr::Str(s)); }
  void operator()(int64_t i) { Emit(Sexpr::Int(i)); }
  void operator()(double f) { Emit(Sexpr::Float(f)); }
  void operator()(JoinType t) { Emit(Sexpr::Sym(JoinTypeName(t))); }
  void operator()(AggFunc f) { Emit(Sexpr::Sym(AggFuncName(f))); }
  void operator()(TransferMode m) { Emit(Sexpr::Sym(TransferModeName(m))); }
  void operator()(BinaryOp op) { Emit(Sexpr::Sym(BinaryOpName(op))); }
  void operator()(const ExprPtr& e) { Emit(ExprToSexpr(*e)); }
  void operator()(const PlanPtr& p) { Emit(PlanToSexpr(*p, format_)); }
  void operator()(const Dataset& d) { Emit(DatasetToSexpr(d, format_)); }
  template <class Ptr>
  void operator()(field::Opt, const Ptr& p) {
    if (p == nullptr) {
      Emit(Sexpr::Sym("none"));
    } else {
      (*this)(p);
    }
  }
  void operator()(field::Flag flag, bool b) {
    Emit(Sexpr::Sym(b ? flag.if_true : flag.if_false));
  }
  template <class Items>
  void operator()(field::Seq seq, const Items& items) {
    std::vector<Sexpr> list;
    if (seq.head != nullptr) list.push_back(Sexpr::Sym(seq.head));
    FieldWriter w(format_, seq.head != nullptr ? &list : out_);
    for (size_t i = 0; i < items.size(); ++i) {
      if constexpr (kListItem<decltype(items[i])>) {
        std::vector<Sexpr> parts;
        if (seq.tag != nullptr) parts.push_back(Sexpr::Sym(seq.tag));
        FieldWriter part_writer(format_, &parts);
        ForEachPart(part_writer, items[i]);
        w.Emit(Sexpr::List(std::move(parts)));
      } else {
        w(items[i]);
      }
    }
    if constexpr (requires { items.Unpaired(); }) {
      // Zipped lists of unequal length: each unpaired item is written as a
      // pair of one part, which the reader refuses.
      for (const auto& item : items.Unpaired()) {
        std::vector<Sexpr> parts;
        if (seq.tag != nullptr) parts.push_back(Sexpr::Sym(seq.tag));
        FieldWriter(format_, &parts)(item);
        w.Emit(Sexpr::List(std::move(parts)));
      }
    }
    if (seq.head != nullptr) Emit(Sexpr::List(std::move(list)));
  }

 private:
  void Emit(Sexpr s) { out_->push_back(std::move(s)); }

  WireFormat format_;
  std::vector<Sexpr>* out_;
};

// Reads fields from items[pos...] of one list. The first error sticks and
// turns every later read into a no-op; Finish() also refuses leftover items.
class FieldReader {
 public:
  FieldReader(const std::vector<Sexpr>& items, size_t pos, const char* op)
      : items_(items), pos_(pos), op_(op) {}

  Status Finish() {
    if (status_.ok() && pos_ != items_.size()) {
      Fail(StrCat("unexpected item ", pos_));
    }
    return status_;
  }

  void operator()(std::string& s) {
    if (const Sexpr* x = Next()) Take(AsString(*x, op_), &s);
  }
  void operator()(int64_t& i) {
    if (const Sexpr* x = Next()) Take(AsInt(*x, op_), &i);
  }
  void operator()(double& f) {
    const Sexpr* x = Next();
    if (x == nullptr) return;
    if (!x->is_float() && !x->is_int()) return Fail("expected a number");
    f = x->as_number();
  }
  void operator()(JoinType& t) { Symbol(&t, JoinTypeFromName); }
  void operator()(AggFunc& f) { Symbol(&f, AggFuncFromName); }
  void operator()(TransferMode& m) { Symbol(&m, TransferModeFromName); }
  void operator()(BinaryOp& op) { Symbol(&op, BinaryOpFromName); }
  void operator()(ExprPtr& e) {
    if (const Sexpr* x = Next()) Take(ExprFromSexpr(*x), &e);
  }
  void operator()(PlanPtr& p) {
    if (const Sexpr* x = Next()) Take(PlanFromSexpr(*x), &p);
  }
  void operator()(Dataset& d) {
    if (const Sexpr* x = Next()) Take(DatasetFromSexpr(*x), &d);
  }
  template <class Ptr>
  void operator()(field::Opt, Ptr& p) {
    if (status_.ok() && pos_ < items_.size() && IsSymbol(items_[pos_], "none")) {
      ++pos_;
      p = nullptr;
    } else {
      (*this)(p);
    }
  }
  void operator()(field::Flag flag, bool& b) {
    const Sexpr* x = Next();
    if (x == nullptr) return;
    if (!IsSymbol(*x, flag.if_false) && !IsSymbol(*x, flag.if_true)) {
      return Fail(StrCat("expected ", flag.if_false, " or ", flag.if_true));
    }
    b = x->text == flag.if_true;
  }
  template <class Items>
  void operator()(field::Seq seq, Items&& items) {
    if (seq.head == nullptr) return ReadItems(seq, items);
    const Sexpr* x = Next();
    if (x == nullptr) return;
    if (!HasHead(*x, seq.head)) return Fail(StrCat("expected (", seq.head, " ...)"));
    FieldReader list(x->items, 1, op_);
    list.ReadItems(seq, items);
    Take(list.Finish());
  }

 private:
  const Sexpr* Next() {
    if (!status_.ok()) return nullptr;
    if (pos_ == items_.size()) {
      Fail("missing arguments");
      return nullptr;
    }
    return &items_[pos_++];
  }
  void Fail(const std::string& why) {
    if (status_.ok()) {
      status_ = Status::SerializationError(StrCat("operator ", op_, ": ", why));
    }
  }
  void Take(const Status& st) {
    if (status_.ok()) status_ = st;
  }
  template <class T>
  void Take(Result<T> r, T* out) {
    if (r.ok()) {
      *out = r.MoveValue();
    } else {
      Take(r.status());
    }
  }
  template <class E>
  void Symbol(E* e, Result<E> (*from_name)(const std::string&)) {
    const Sexpr* x = Next();
    if (x == nullptr) return;
    if (!x->is_symbol()) return Fail("expected a symbol");
    Take(from_name(x->text), e);
  }
  // Reads every remaining item into `items`.
  template <class Items>
  void ReadItems(field::Seq seq, Items& items) {
    while (status_.ok() && pos_ < items_.size()) {
      decltype(auto) item = items.emplace_back();
      if constexpr (kListItem<decltype(item)>) {
        const Sexpr& x = items_[pos_++];
        if (!x.is_list() || (seq.tag != nullptr && !HasHead(x, seq.tag))) {
          return Fail(StrCat("expected (", seq.tag == nullptr ? "" : seq.tag,
                             " ...)"));
        }
        FieldReader parts(x.items, seq.tag == nullptr ? 0 : 1, op_);
        ForEachPart(parts, item);
        Take(parts.Finish());
      } else {
        (*this)(item);
      }
    }
  }

  const std::vector<Sexpr>& items_;
  size_t pos_;
  const char* op_;
  Status status_;
};

Sexpr PlanToSexpr(const Plan& p, WireFormat format) {
  std::vector<Sexpr> items = {Sexpr::Sym(OpKindName(p.kind()))};
  for (const PlanPtr& c : p.children()) {
    items.push_back(PlanToSexpr(*c, format));
  }
  FieldWriter writer(format, &items);
  std::visit([&](const auto& op) { op.Fields(writer, op); }, p.payload());
  return Sexpr::List(std::move(items));
}

Result<PlanPtr> PlanFromSexpr(const Sexpr& s) {
  NEXUS_RETURN_NOT_OK(Expect(s, 1, "plan"));
  NEXUS_ASSIGN_OR_RETURN(OpKind kind, OpKindFromName(s.items[0].text));
  const size_t n_children = static_cast<size_t>(OpKindChildCount(kind));
  if (s.items.size() < 1 + n_children) {
    return Status::SerializationError(
        StrCat("operator ", OpKindName(kind), " missing children"));
  }
  std::vector<PlanPtr> children;
  for (size_t i = 1; i <= n_children; ++i) {
    NEXUS_ASSIGN_OR_RETURN(PlanPtr c, PlanFromSexpr(s.items[i]));
    children.push_back(std::move(c));
  }
  OpPayload payload = DefaultPayload(kind);
  FieldReader reader(s.items, 1 + n_children, OpKindName(kind));
  std::visit([&](auto& op) { op.Fields(reader, op); }, payload);
  NEXUS_RETURN_NOT_OK(reader.Finish());
  return Plan::Make(std::move(payload), std::move(children));
}

}  // namespace

std::string SerializePlan(const Plan& plan) {
  return SerializePlanWire(plan, WireFormat::kText);
}

std::string SerializePlanWire(const Plan& plan, WireFormat format) {
  std::string out;
  WriteSexpr(PlanToSexpr(plan, format), &out);
  return out;
}

Result<PlanPtr> ParsePlan(std::string_view wire) {
  SexprParser parser(wire);
  NEXUS_ASSIGN_OR_RETURN(Sexpr s, parser.Parse());
  return PlanFromSexpr(s);
}

std::string SerializeExpr(const Expr& expr) {
  std::string out;
  WriteSexpr(ExprToSexpr(expr), &out);
  return out;
}

Result<ExprPtr> ParseExpr(std::string_view wire) {
  SexprParser parser(wire);
  NEXUS_ASSIGN_OR_RETURN(Sexpr s, parser.Parse());
  return ExprFromSexpr(s);
}

std::string SerializeDataset(const Dataset& data) {
  std::string out;
  WriteSexpr(DatasetToSexpr(data, WireFormat::kText), &out);
  return out;
}

Result<Dataset> ParseDataset(std::string_view wire) {
  SexprParser parser(wire);
  NEXUS_ASSIGN_OR_RETURN(Sexpr s, parser.Parse());
  return DatasetFromSexpr(s);
}

std::string SerializeDatasetWire(const Dataset& data, WireFormat format) {
  if (format == WireFormat::kBinary) return EncodeNxb1(data);
  return SerializeDataset(data);
}

Result<Dataset> ParseDatasetWire(std::string_view wire) {
  if (wire.size() >= 4 && std::memcmp(wire.data(), kNxb1Magic, 4) == 0) {
    return DecodeNxb1(wire);
  }
  return ParseDataset(wire);
}

uint64_t FingerprintWire(std::string_view wire) {
  uint64_t fp = HashInt64(HashBytes(wire.data(), wire.size()));
  return fp == 0 ? 1 : fp;
}

// ---------------------------------------------------------------------------
// Plan-cache envelope.
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kPlanTag = "%NXB1-PLAN ";
constexpr std::string_view kExecTag = "%NXB1-EXEC ";

void AppendNetstring(std::string_view bytes, std::string* out) {
  out->append(StrCat(static_cast<int64_t>(bytes.size())));
  out->push_back(':');
  out->append(bytes);
}

// Parses "<len>:<bytes>" at the reader position.
Result<std::string_view> ParseNetstring(std::string_view in, size_t* pos) {
  size_t start = *pos;
  while (*pos < in.size() &&
         std::isdigit(static_cast<unsigned char>(in[*pos]))) {
    ++*pos;
  }
  if (*pos == start || *pos >= in.size() || in[*pos] != ':') {
    return Status::SerializationError("malformed envelope length prefix");
  }
  unsigned long long len = std::strtoull(
      std::string(in.substr(start, *pos - start)).c_str(), nullptr, 10);
  ++*pos;  // ':'
  if (len > in.size() - *pos) {
    return Status::SerializationError("envelope segment exceeds input");
  }
  std::string_view v = in.substr(*pos, len);
  *pos += len;
  return v;
}

}  // namespace

std::string BuildWireEnvelope(
    WireEnvelope::Kind kind, uint64_t fingerprint,
    const std::vector<std::pair<std::string, std::string>>& bindings,
    std::string_view plan_wire) {
  if (kind == WireEnvelope::Kind::kNone) return std::string(plan_wire);
  std::string out;
  size_t reserve = 48 + plan_wire.size();
  for (const auto& [name, wire] : bindings) {
    reserve += name.size() + wire.size() + 24;
  }
  out.reserve(reserve);
  out.append(kind == WireEnvelope::Kind::kPlanStore ? kPlanTag : kExecTag);
  out.append(std::to_string(fingerprint));
  out.push_back(' ');
  out.append(StrCat(static_cast<int64_t>(bindings.size())));
  out.push_back('\n');
  for (const auto& [name, wire] : bindings) {
    AppendNetstring(name, &out);
    AppendNetstring(wire, &out);
  }
  if (kind == WireEnvelope::Kind::kPlanStore) out.append(plan_wire);
  return out;
}

Result<WireEnvelope> ParseWireEnvelope(std::string_view wire) {
  WireEnvelope env;
  if (wire.substr(0, kPlanTag.size()) == kPlanTag) {
    env.kind = WireEnvelope::Kind::kPlanStore;
  } else if (wire.substr(0, kExecTag.size()) == kExecTag) {
    env.kind = WireEnvelope::Kind::kExecCached;
  } else {
    env.plan_wire = wire;
    return env;
  }
  size_t pos = kPlanTag.size();
  size_t start = pos;
  while (pos < wire.size() &&
         std::isdigit(static_cast<unsigned char>(wire[pos]))) {
    ++pos;
  }
  if (pos == start || pos >= wire.size() || wire[pos] != ' ') {
    return Status::SerializationError("malformed envelope fingerprint");
  }
  env.fingerprint = std::strtoull(
      std::string(wire.substr(start, pos - start)).c_str(), nullptr, 10);
  ++pos;  // ' '
  start = pos;
  while (pos < wire.size() &&
         std::isdigit(static_cast<unsigned char>(wire[pos]))) {
    ++pos;
  }
  if (pos == start || pos >= wire.size() || wire[pos] != '\n') {
    return Status::SerializationError("malformed envelope binding count");
  }
  unsigned long long nbind = std::strtoull(
      std::string(wire.substr(start, pos - start)).c_str(), nullptr, 10);
  ++pos;  // '\n'
  env.bindings.reserve(nbind);
  for (unsigned long long i = 0; i < nbind; ++i) {
    NEXUS_ASSIGN_OR_RETURN(std::string_view name, ParseNetstring(wire, &pos));
    NEXUS_ASSIGN_OR_RETURN(std::string_view data, ParseNetstring(wire, &pos));
    env.bindings.emplace_back(name, data);
  }
  env.plan_wire = wire.substr(pos);
  if (env.kind == WireEnvelope::Kind::kExecCached && !env.plan_wire.empty()) {
    return Status::SerializationError("exec envelope carries trailing bytes");
  }
  if (env.kind == WireEnvelope::Kind::kPlanStore && env.plan_wire.empty()) {
    return Status::SerializationError("plan envelope is missing its plan");
  }
  return env;
}

// ---------------------------------------------------------------------------
// Delta bindings.
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kDeltaTag = "%NXB1-DELTA ";

// Parses the run of digits at *pos into `out`; returns false on no digits.
bool ParseU64At(std::string_view in, size_t* pos, unsigned long long* out) {
  size_t start = *pos;
  while (*pos < in.size() &&
         std::isdigit(static_cast<unsigned char>(in[*pos]))) {
    ++*pos;
  }
  if (*pos == start) return false;
  *out = std::strtoull(std::string(in.substr(start, *pos - start)).c_str(),
                       nullptr, 10);
  return true;
}

}  // namespace

std::string BuildDeltaBindingWire(int64_t base_rows, uint64_t chain_fp,
                                  std::string_view tail_wire) {
  std::string out;
  out.reserve(kDeltaTag.size() + 48 + tail_wire.size());
  out.append(kDeltaTag);
  out.append(StrCat(base_rows));
  out.push_back(' ');
  out.append(std::to_string(chain_fp));
  out.push_back('\n');
  out.append(tail_wire);
  return out;
}

bool IsDeltaBindingWire(std::string_view wire) {
  return wire.substr(0, kDeltaTag.size()) == kDeltaTag;
}

Result<DeltaBindingView> ParseDeltaBindingWire(std::string_view wire) {
  if (!IsDeltaBindingWire(wire)) {
    return Status::SerializationError("not a delta binding wire");
  }
  size_t pos = kDeltaTag.size();
  unsigned long long base_rows = 0, chain_fp = 0;
  if (!ParseU64At(wire, &pos, &base_rows) || pos >= wire.size() ||
      wire[pos] != ' ') {
    return Status::SerializationError("malformed delta binding base rows");
  }
  ++pos;  // ' '
  if (!ParseU64At(wire, &pos, &chain_fp) || pos >= wire.size() ||
      wire[pos] != '\n') {
    return Status::SerializationError("malformed delta binding chain");
  }
  ++pos;  // '\n'
  DeltaBindingView view;
  view.base_rows = static_cast<int64_t>(base_rows);
  view.chain_fp = chain_fp;
  view.tail_wire = wire.substr(pos);
  return view;
}

uint64_t ChainFingerprint(uint64_t prev, std::string_view wire) {
  uint64_t fp = HashInt64(prev ^ FingerprintWire(wire));
  return fp == 0 ? 1 : fp;
}

}  // namespace nexus
