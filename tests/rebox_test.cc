// Rebox oracle property test. The columnar, chunk-at-a-time conversions
// (NDArray::ToTable / FromTable, linalg::ToNDArray, arraydb::Slice) must
// match the frozen per-cell loops they replaced (bench/rebox_percell.h)
// exactly: equal values, equal NXB1 and text bytes, identical chunk
// payloads down to the bits under unoccupied cells, equal resident bytes,
// equal memory-meter charges, and the same duplicate-row error.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <map>
#include <mutex>
#include <numeric>

#include "arraydb/engine.h"
#include "bench/rebox_percell.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/serialize.h"
#include "core/wire_format.h"
#include "linalg/dense.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

struct CountingMeter : MemoryMeter {
  std::atomic<int64_t> charged{0};
  void Charge(int64_t bytes) override { charged += bytes; }
};

/// Bytes charged to a fresh memory meter while `fn` runs.
template <typename Fn>
int64_t Metered(Fn&& fn) {
  CountingMeter meter;
  TaskContext ctx;
  ctx.meter = &meter;
  {
    ScopedTaskContext scope(&ctx);
    fn();
  }
  return meter.charged.load();
}

/// A working in-memory pager: evicted chunks come back intact.
class MapPager : public ChunkPager {
 public:
  Status PageOut(int64_t key, ArrayChunk chunk) override {
    std::lock_guard<std::mutex> lock(mu_);
    parked_[key] = std::move(chunk);
    return Status::OK();
  }
  Result<ArrayChunk> PageIn(int64_t key) override {
    std::lock_guard<std::mutex> lock(mu_);
    return parked_.at(key);
  }
  void Drop(int64_t key) override {
    std::lock_guard<std::mutex> lock(mu_);
    parked_.erase(key);
  }
  int64_t paged_bytes() const override { return 0; }

 private:
  std::mutex mu_;
  std::map<int64_t, ArrayChunk> parked_;
};

/// Bitwise column identity: data (including the bits under nulls and
/// unoccupied cells), validity mask, and null count.
void ExpectSameColumn(const Column& a, const Column& b, const std::string& where) {
  ASSERT_EQ(a.type(), b.type()) << where;
  ASSERT_EQ(a.size(), b.size()) << where;
  EXPECT_EQ(a.validity(), b.validity()) << where;
  EXPECT_EQ(a.null_count(), b.null_count()) << where;
  switch (a.type()) {
    case DataType::kBool:
      EXPECT_EQ(a.bools(), b.bools()) << where;
      break;
    case DataType::kInt64:
      EXPECT_EQ(a.ints(), b.ints()) << where;
      break;
    case DataType::kFloat64:  // bitwise: tells -0.0 from +0.0
      for (size_t i = 0; i < a.doubles().size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(a.doubles()[i]),
                  std::bit_cast<uint64_t>(b.doubles()[i]))
            << where << " row " << i;
      }
      break;
    case DataType::kString:
      EXPECT_EQ(a.strings(), b.strings()) << where;
      break;
  }
}

void ExpectSameTable(const TablePtr& got, const TablePtr& want) {
  ASSERT_TRUE(got->Equals(*want)) << got->ToString() << "\nvs\n" << want->ToString();
  EXPECT_EQ(got->ByteSize(), want->ByteSize());
  for (int c = 0; c < got->num_columns(); ++c) {
    ExpectSameColumn(got->column(c), want->column(c), StrCat("column ", c));
  }
  for (WireFormat f : {WireFormat::kText, WireFormat::kBinary}) {
    EXPECT_EQ(SerializeDatasetWire(Dataset(got), f),
              SerializeDatasetWire(Dataset(want), f))
        << WireFormatName(f);
  }
}

/// Structural identity: same geometry, same chunk set, same payload bits.
void ExpectSameArray(const NDArrayPtr& got, const NDArrayPtr& want) {
  ASSERT_EQ(got->dims(), want->dims());
  ASSERT_TRUE(got->attr_schema()->Equals(*want->attr_schema()));
  EXPECT_TRUE(got->Equals(*want));
  EXPECT_EQ(got->ResidentBytes(), want->ResidentBytes());
  std::vector<const ArrayChunk*> gc = got->chunks(), wc = want->chunks();
  ASSERT_EQ(gc.size(), wc.size());
  for (size_t i = 0; i < gc.size(); ++i) {
    ASSERT_EQ(gc[i]->grid, wc[i]->grid);
    EXPECT_EQ(gc[i]->lo, wc[i]->lo);
    EXPECT_EQ(gc[i]->extent, wc[i]->extent);
    EXPECT_EQ(gc[i]->occupied, wc[i]->occupied);
    ASSERT_EQ(gc[i]->attrs.size(), wc[i]->attrs.size());
    for (size_t a = 0; a < gc[i]->attrs.size(); ++a) {
      ExpectSameColumn(gc[i]->attrs[a], wc[i]->attrs[a],
                       StrCat("chunk ", i, " attr ", a));
    }
  }
  for (WireFormat f : {WireFormat::kText, WireFormat::kBinary}) {
    EXPECT_EQ(SerializeDatasetWire(Dataset(got), f),
              SerializeDatasetWire(Dataset(want), f))
        << WireFormatName(f);
  }
}

Value RandomValue(Rng* rng, DataType type) {
  if (rng->NextBool(0.15)) return Value::Null();
  switch (type) {
    case DataType::kBool:
      return Value::Bool(rng->NextBool());
    case DataType::kInt64:
      return Value::Int64(rng->NextInt(-1000, 1000));
    case DataType::kFloat64: {
      switch (rng->NextBounded(4)) {
        case 0:
          return Value::Float64(-0.0);
        case 1:
          return Value::Float64(0.0);
        default:
          return Value::Float64(rng->NextDouble(-10, 10));
      }
    }
    case DataType::kString:
      return Value::String(rng->NextBool(0.2) ? "" : StrCat("s", rng->NextInt(0, 99)));
  }
  return Value::Null();
}

/// A random 1-, 2- or 3-d array: negative starts, ragged edge chunks,
/// whole empty chunk columns, one to four attributes of any type with
/// nulls, and some cells written twice (a null overwritten by a value
/// leaves a validity mask with no null in it).
std::shared_ptr<NDArray> RandomArray(uint64_t seed, bool big) {
  Rng rng(seed);
  const int nd = big ? 2 : 1 + static_cast<int>(rng.NextBounded(3));
  const int64_t max_len = big ? 200 : (nd == 1 ? 40 : nd == 2 ? 14 : 7);
  std::vector<DimensionSpec> dims;
  for (int d = 0; d < nd; ++d) {
    int64_t len = big ? max_len : rng.NextInt(1, max_len);
    dims.push_back(DimensionSpec{StrCat("d", d), rng.NextInt(-20, 20), len,
                                 rng.NextInt(1, len + 2)});
  }
  static const DataType kTypes[] = {DataType::kBool, DataType::kInt64,
                                    DataType::kFloat64, DataType::kString};
  std::vector<Field> fields;
  const int nattrs = 1 + static_cast<int>(rng.NextBounded(4));
  for (int a = 0; a < nattrs; ++a) {
    fields.push_back(Field::Attr(StrCat("a", a), kTypes[rng.NextBounded(4)]));
  }
  auto arr = NDArray::Make(dims, testing::MakeSchema(fields)).ValueOrDie();
  static const double kDensity[] = {0.0, 0.1, 0.5, 1.0};
  const double density = big ? 1.0 : kDensity[rng.NextBounded(4)];
  const int64_t empty_band = rng.NextInt(0, 2);  // chunk column left empty
  std::vector<int64_t> c(static_cast<size_t>(nd));
  for (int64_t cell = 0; cell < arr->NumCellsTotal(); ++cell) {
    int64_t rest = cell;
    for (int d = nd; d-- > 0;) {
      c[static_cast<size_t>(d)] = dims[static_cast<size_t>(d)].start +
                                  rest % dims[static_cast<size_t>(d)].length;
      rest /= dims[static_cast<size_t>(d)].length;
    }
    if (!big && (c[0] - dims[0].start) / dims[0].chunk_size == empty_band) continue;
    if (!rng.NextBool(density)) continue;
    std::vector<Value> vals;
    for (const Field& f : fields) vals.push_back(RandomValue(&rng, f.type));
    if (rng.NextBool(0.1)) {
      std::vector<Value> nulls(fields.size(), Value::Null());
      EXPECT_OK(arr->Set(c, nulls));
    }
    EXPECT_OK(arr->Set(c, vals));
  }
  return arr;
}

class ReboxOracleTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { SetThreadCount(GetParam()); }
  void TearDown() override { SetThreadCount(saved_threads_); }
  int saved_threads_ = GetThreadCount();
};

TEST_P(ReboxOracleTest, ToTableMatchesPerCell) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    std::shared_ptr<NDArray> a = RandomArray(seed, seed % 30 == 0);
    TablePtr got, want;
    int64_t got_charge = Metered([&] { got = a->ToTable().ValueOrDie(); });
    int64_t want_charge = Metered([&] { want = percell::ToTable(*a).ValueOrDie(); });
    ExpectSameTable(got, want);
    EXPECT_EQ(got_charge, want_charge);

    // Evicted chunks page back in through a working pager, byte-identical.
    std::shared_ptr<NDArray> twin = RandomArray(seed, seed % 30 == 0);
    twin->SetPager(std::make_shared<MapPager>());
    ASSERT_OK(twin->EvictToBudget(twin->ResidentBytes() / 2).status());
    ASSERT_OK_AND_ASSIGN(TablePtr paged, twin->ToTable());
    EXPECT_EQ(twin->EvictedChunks(), 0);
    ExpectSameTable(paged, want);
  }
}

TEST_P(ReboxOracleTest, FromTableMatchesPerCell) {
  for (uint64_t seed = 100; seed < 160; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    std::shared_ptr<NDArray> a = RandomArray(seed, seed % 30 == 0);
    TablePtr flat = percell::ToTable(*a).ValueOrDie();
    Rng rng(seed);
    // Shuffled rows visit chunks out of order; re-chunk at random sizes
    // (<= 0 spans the whole dimension).
    std::vector<int64_t> perm(static_cast<size_t>(flat->num_rows()));
    std::iota(perm.begin(), perm.end(), 0);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    }
    TablePtr shuffled = rng.NextBool() ? flat->TakeRows(perm) : flat;
    std::vector<std::string> names;
    std::vector<int64_t> chunks;
    for (const DimensionSpec& d : a->dims()) {
      names.push_back(d.name);
      chunks.push_back(rng.NextInt(-1, d.length + 1));
    }
    std::shared_ptr<NDArray> got, want;
    int64_t got_charge = Metered(
        [&] { got = NDArray::FromTable(*shuffled, names, chunks).ValueOrDie(); });
    int64_t want_charge = Metered(
        [&] { want = percell::FromTable(*shuffled, names, chunks).ValueOrDie(); });
    ExpectSameArray(got, want);
    EXPECT_EQ(got_charge, want_charge);

    // A repeated coordinate fails at the same row with the same message.
    if (flat->num_rows() == 0) continue;
    std::vector<int64_t> dup = perm;
    size_t at = rng.NextBounded(dup.size() + 1);
    dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(at),
               perm[rng.NextBounded(perm.size())]);
    TablePtr with_dup = flat->TakeRows(dup);
    auto got_dup = NDArray::FromTable(*with_dup, names, chunks);
    auto want_dup = percell::FromTable(*with_dup, names, chunks);
    ASSERT_FALSE(got_dup.ok());
    ASSERT_FALSE(want_dup.ok());
    EXPECT_EQ(got_dup.status().ToString(), want_dup.status().ToString());
  }
}

TEST_P(ReboxOracleTest, SliceMatchesPerCell) {
  for (uint64_t seed = 200; seed < 260; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    std::shared_ptr<NDArray> a = RandomArray(seed, seed % 30 == 0);
    Rng rng(seed);
    std::vector<DimRange> ranges;
    for (const DimensionSpec& d : a->dims()) {
      if (rng.NextBool(0.25)) continue;  // unconstrained dimension
      int64_t lo = rng.NextInt(d.start - 5, d.end() + 2);
      ranges.push_back(DimRange{d.name, lo, lo + rng.NextInt(-1, d.length + 4)});
    }
    NDArrayPtr got, want;
    int64_t got_charge =
        Metered([&] { got = arraydb::Slice(*a, ranges).ValueOrDie(); });
    int64_t want_charge =
        Metered([&] { want = percell::Slice(*a, ranges).ValueOrDie(); });
    ExpectSameArray(got, want);
    EXPECT_EQ(got_charge, want_charge);

    std::shared_ptr<NDArray> twin = RandomArray(seed, seed % 30 == 0);
    twin->SetPager(std::make_shared<MapPager>());
    ASSERT_OK(twin->EvictToBudget(twin->ResidentBytes() / 2).status());
    ASSERT_OK_AND_ASSIGN(NDArrayPtr paged, arraydb::Slice(*twin, ranges));
    ExpectSameArray(paged, want);
  }
}

TEST_P(ReboxOracleTest, ToNDArrayMatchesPerCell) {
  for (uint64_t seed = 300; seed < 340; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    linalg::DenseMatrix m(rng.NextInt(1, 40), rng.NextInt(1, 40));
    for (double& v : m.data()) {
      switch (rng.NextBounded(4)) {
        case 0:
          v = -0.0;  // dropped under drop_zeros; the cell keeps +0.0
          break;
        case 1:
          v = 0.0;
          break;
        default:
          v = rng.NextDouble(-1, 1);
      }
    }
    if (rng.NextBool(0.2)) std::fill(m.data().begin(), m.data().end(), 0.0);
    int64_t rs = rng.NextInt(-20, 20), cs = rng.NextInt(-20, 20);
    int64_t chunk = rng.NextInt(1, 16);
    for (bool drop : {false, true}) {
      NDArrayPtr got, want;
      int64_t got_charge = Metered([&] {
        got = linalg::ToNDArray(m, "i", "j", "v", rs, cs, chunk, drop).ValueOrDie();
      });
      int64_t want_charge = Metered([&] {
        want = percell::ToNDArray(m, "i", "j", "v", rs, cs, chunk, drop).ValueOrDie();
      });
      ExpectSameArray(got, want);
      EXPECT_EQ(got_charge, want_charge);

      // And back: FromNDArray recovers the matrix (dropped zeros as +0.0).
      int64_t r0 = 0, c0 = 0;
      ASSERT_OK_AND_ASSIGN(linalg::DenseMatrix back, linalg::FromNDArray(*got, &r0, &c0));
      EXPECT_EQ(r0, rs);
      EXPECT_EQ(c0, cs);
      ASSERT_TRUE(back.SameShape(m));
      for (size_t i = 0; i < m.data().size(); ++i) {
        double expect = drop && m.data()[i] == 0.0 ? 0.0 : m.data()[i];
        EXPECT_EQ(std::bit_cast<uint64_t>(back.data()[i]), std::bit_cast<uint64_t>(expect))
            << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ReboxOracleTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace nexus
