// Crash-resistance fuzzing for every text interface: the BDL parser, the
// s-expression plan/expr/dataset parsers, and the CSV reader. Parsers face
// the network (plans arrive over the wire) and user input; on any garbage
// they must return a Status — never crash, hang, or throw.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/serialize.h"
#include "core/wire_format.h"
#include "expr/builder.h"
#include "frontend/bdl.h"
#include "tests/test_util.h"
#include "types/csv.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT

std::string RandomGarbage(Rng* rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcxyz0123456789 \t\n()[]{}\"\\,.:;=<>+-*/%|_#'";
  size_t len = rng->NextBounded(max_len);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

// Random single-point mutation of a valid input.
std::string Mutate(Rng* rng, std::string s) {
  if (s.empty()) return s;
  switch (rng->NextBounded(3)) {
    case 0:  // flip a character
      s[rng->NextBounded(s.size())] =
          static_cast<char>('!' + rng->NextBounded(90));
      break;
    case 1:  // delete a span
      s.erase(rng->NextBounded(s.size()),
              1 + rng->NextBounded(5));
      break;
    default:  // duplicate a span
      s.insert(rng->NextBounded(s.size()),
               s.substr(rng->NextBounded(s.size()), 1 + rng->NextBounded(6)));
      break;
  }
  return s;
}

class ParserFuzzTest : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<uint64_t>(GetParam()) * 48271 + 13};
};

TEST_P(ParserFuzzTest, GarbageNeverCrashesAnyParser) {
  for (int trial = 0; trial < 200; ++trial) {
    std::string input = RandomGarbage(&rng_, 120);
    (void)ParseBdl(input);
    (void)ParseBdlExpr(input);
    (void)ParsePlan(input);
    (void)ParseExpr(input);
    (void)ParseDataset(input);
    (void)ReadCsv(input);
  }
  SUCCEED();  // surviving without UB/abort is the assertion
}

TEST_P(ParserFuzzTest, MutatedWirePlansFailCleanlyOrStayValid) {
  // Start from real serialized plans, one per operator kind so every field
  // codec is exercised, in both wire formats, and corrupt them.
  for (const auto& [name, plan] : testing::PlanPerOpKind()) {
    for (WireFormat format : {WireFormat::kText, WireFormat::kBinary}) {
      std::string wire = SerializePlanWire(*plan, format);
      for (int trial = 0; trial < 60; ++trial) {
        std::string corrupted = Mutate(&rng_, wire);
        auto parsed = ParsePlan(corrupted);
        if (!parsed.ok()) continue;  // clean rejection
        // If it still parses, it must re-serialize deterministically.
        std::string rewire = SerializePlanWire(*parsed.ValueOrDie(), format);
        auto reparsed = ParsePlan(rewire);
        ASSERT_TRUE(reparsed.ok()) << name << ": " << rewire;
        EXPECT_TRUE(parsed.ValueOrDie()->Equals(*reparsed.ValueOrDie())) << name;
      }
    }
  }
}

// Array datasets in both wire forms. The decoders rebox through
// NDArray::FromTable, so corrupted geometry must be refused before any
// chunk is allocated; whatever still decodes must round-trip.
TEST_P(ParserFuzzTest, MutatedArrayDatasetsFailCleanlyOrRoundTrip) {
  SchemaPtr s = Schema::Make({Field::Dim("i"), Field::Dim("j"),
                              Field::Attr("v", DataType::kFloat64),
                              Field::Attr("tag", DataType::kString)})
                    .ValueOrDie();
  TableBuilder b(s);
  for (int64_t i = -3; i < 5; ++i) {
    for (int64_t j = 0; j < 6; j += 1 + (i & 1)) {
      Value v = (i + j) % 5 == 0 ? Value::Null() : Value::Float64(i * 0.5 - j);
      EXPECT_OK(b.AppendRow({Value::Int64(i), Value::Int64(j), v,
                             Value::String(j % 2 == 0 ? "even" : "odd")}));
    }
  }
  Dataset array(Dataset(b.Finish().ValueOrDie()).AsArray(4).ValueOrDie());
  for (WireFormat format : {WireFormat::kText, WireFormat::kBinary}) {
    std::string wire = SerializeDatasetWire(array, format);
    for (int trial = 0; trial < 150; ++trial) {
      auto parsed = ParseDatasetWire(Mutate(&rng_, wire));
      if (!parsed.ok()) continue;  // clean rejection
      const Dataset& got = parsed.ValueOrDie();
      auto reparsed = ParseDatasetWire(SerializeDatasetWire(got, format));
      ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
      EXPECT_TRUE(got.LogicallyEquals(reparsed.ValueOrDie()));
    }
  }
}

// Two cells 2^40 apart shipped with chunk size 0: decoded naively this is
// one 2^40-cell chunk (std::bad_alloc). Both wire forms must refuse it.
TEST(ParserFuzzRegressionTest, NonPositiveWireChunkSizeIsRejected) {
  SchemaPtr s = Schema::Make({Field::Dim("i"), Field::Attr("v", DataType::kFloat64)})
                    .ValueOrDie();
  TableBuilder b(s);
  EXPECT_OK(b.AppendRow({Value::Int64(0), Value::Float64(1.0)}));
  EXPECT_OK(b.AppendRow({Value::Int64(int64_t{1} << 40), Value::Float64(2.0)}));
  Dataset sparse(Dataset(b.Finish().ValueOrDie()).AsArray(1).ValueOrDie());

  std::string text = SerializeDatasetWire(sparse, WireFormat::kText);
  size_t at = text.find("(chunks 1)");
  ASSERT_NE(at, std::string::npos) << text;
  for (const char* chunk : {"(chunks 0)", "(chunks -4)"}) {
    std::string bad = text;
    bad.replace(at, 10, chunk);
    auto parsed = ParseDatasetWire(bad);
    ASSERT_FALSE(parsed.ok()) << chunk;
    EXPECT_EQ(parsed.status().code(), StatusCode::kSerializationError);
  }

  // NXB1: magic, u16 version, u8 flags, u16 nfields, per field
  // {u8 type, u8 is_dim, u16 name_len, name}, u16 ndims, then the u64
  // chunk size.
  std::string binary = SerializeDatasetWire(sparse, WireFormat::kBinary);
  size_t chunk_at = 4 + 2 + 1 + 2 + (4 + 1) * 2 + 2;
  ASSERT_EQ(binary[chunk_at], 1);
  binary[chunk_at] = 0;
  auto parsed = ParseDatasetWire(binary);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kSerializationError);

  // A positive chunk size whose clipped chunk (here 2^40 cells) exceeds the
  // wire row bound is refused the same way.
  binary[chunk_at + 5] = 1;
  parsed = ParseDatasetWire(binary);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kSerializationError);
}

TEST_P(ParserFuzzTest, MutatedBdlFailsCleanlyOrParses) {
  const char* valid =
      "from orders | where amount > 50 and region == \"a\" | "
      "group by cid aggregate sum(amount) as t | sort by t desc | limit 10";
  for (int trial = 0; trial < 150; ++trial) {
    std::string corrupted = Mutate(&rng_, valid);
    (void)ParseBdl(corrupted);  // either Status or a plan; never a crash
  }
  SUCCEED();
}

TEST_P(ParserFuzzTest, MutatedCsvFailsCleanlyOrParses) {
  const char* valid = "a,b,c\n1,2.5,\"x,y\"\n2,,z\n";
  for (int trial = 0; trial < 150; ++trial) {
    std::string corrupted = Mutate(&rng_, valid);
    auto t = ReadCsv(corrupted);
    if (t.ok()) {
      // Whatever parsed must be internally consistent.
      EXPECT_GE(t.ValueOrDie()->num_columns(), 1);
    }
  }
}

TEST_P(ParserFuzzTest, DeepNestingIsHandled) {
  // Deeply nested parens must not blow the stack unreasonably or crash.
  for (int depth : {10, 100, 1000}) {
    std::string deep(static_cast<size_t>(depth), '(');
    deep += "col \"x\"";
    deep += std::string(static_cast<size_t>(depth), ')');
    (void)ParseExpr(deep);
    std::string bdl_expr = std::string(static_cast<size_t>(depth), '(') + "x" +
                           std::string(static_cast<size_t>(depth), ')');
    (void)ParseBdlExpr(bdl_expr);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 6));

bool RefusedAsTooDeep(const Status& st) {
  return !st.ok() && st.message().find("nested deeper than") != std::string::npos;
}

TEST(ParserFuzzRegressionTest, HundredThousandDeepNestingIsRefused) {
  // About 200 KB of nested parens: each recursive parser must refuse it
  // with its error Status rather than overflow the stack.
  constexpr size_t kDepth = 100000;
  const std::string open(kDepth, '(');
  const std::string close(kDepth, ')');
  EXPECT_TRUE(RefusedAsTooDeep(ParsePlan(open + "scan \"t\"" + close).status()));
  EXPECT_TRUE(RefusedAsTooDeep(ParseExpr(open + "col \"x\"" + close).status()));
  EXPECT_TRUE(RefusedAsTooDeep(ParseDataset(open + close).status()));
  EXPECT_TRUE(RefusedAsTooDeep(ParseBdlExpr(open + "x" + close).status()));
  EXPECT_TRUE(
      RefusedAsTooDeep(ParseBdl("from t | where " + open + "x" + close).status()));
  // BDL's prefix operators recurse as well.
  std::string nots, negs;
  for (size_t i = 0; i < kDepth; ++i) {
    nots += "not ";
    negs += "- ";
  }
  EXPECT_TRUE(RefusedAsTooDeep(ParseBdlExpr(nots + "x").status()));
  EXPECT_TRUE(RefusedAsTooDeep(ParseBdlExpr(negs + "x").status()));
}

TEST(ParserFuzzRegressionTest, MillionTermOperatorChainsAreRefused) {
  // A flat chain builds a left-deep tree one level per operator; a million
  // terms would give recursive walks and a destructor a million frames.
  constexpr size_t kTerms = 1000000;
  std::string sum = "x", conj = "x";
  sum.reserve(kTerms * 4);
  conj.reserve(kTerms * 6);
  for (size_t i = 1; i < kTerms; ++i) {
    sum += " + x";
    conj += " and x";
  }
  EXPECT_TRUE(RefusedAsTooDeep(ParseBdlExpr(sum).status()));
  EXPECT_TRUE(RefusedAsTooDeep(ParseBdlExpr(conj).status()));
  EXPECT_TRUE(RefusedAsTooDeep(ParseBdl("from t | where " + conj).status()));
}

TEST(ParserFuzzRegressionTest, OperatorChainsUpToTheLimitStillParse) {
  // The top-level expression is one level, each chained operator another.
  const size_t ops = static_cast<size_t>(kMaxParseDepth) - 1;
  for (const std::string op : {" + ", " * ", " or ", " and "}) {
    std::string chain = "x";
    for (size_t i = 0; i < ops; ++i) chain += op + "x";
    EXPECT_OK(ParseBdlExpr(chain).status());
    EXPECT_TRUE(RefusedAsTooDeep(ParseBdlExpr(chain + op + "x").status())) << op;
  }
}

TEST(ParserFuzzRegressionTest, NestingUpToTheLimitStillParses) {
  // BDL: the top-level expression is one level, each parenthesis another.
  const size_t parens = static_cast<size_t>(kMaxParseDepth) - 1;
  EXPECT_OK(ParseBdlExpr(std::string(parens, '(') + "x" +
                         std::string(parens, ')'))
                .status());
  EXPECT_TRUE(RefusedAsTooDeep(ParseBdlExpr(std::string(parens + 1, '(') + "x" +
                                            std::string(parens + 1, ')'))
                                   .status()));
  // S-expressions: kMaxParseDepth nested lists get past the reader (and are
  // then rejected as a malformed plan); one more is refused by the reader.
  const size_t lists = static_cast<size_t>(kMaxParseDepth);
  Status at_limit =
      ParsePlan(std::string(lists, '(') + std::string(lists, ')')).status();
  EXPECT_FALSE(at_limit.ok());
  EXPECT_FALSE(RefusedAsTooDeep(at_limit)) << at_limit;
  EXPECT_TRUE(RefusedAsTooDeep(
      ParsePlan(std::string(lists + 1, '(') + std::string(lists + 1, ')'))
          .status()));
}

}  // namespace
}  // namespace nexus
