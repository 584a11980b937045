// Unit tests for the metered transport and cluster plumbing — the
// measurement instrument behind E4/E5/E6 must itself be exact.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/query_profile.h"
#include "common/random.h"
#include "expr/builder.h"
#include "federation/cluster.h"
#include "federation/coordinator.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

TEST(TransportTest, CountsMessagesAndBytes) {
  Transport t;
  t.Send("client", "a", 100, MessageKind::kPlan);
  t.Send("a", "b", 1000, MessageKind::kData);
  t.Send("b", "client", 50, MessageKind::kData);
  EXPECT_EQ(t.total_messages(), 3);
  EXPECT_EQ(t.total_bytes(), 1150);
  EXPECT_EQ(t.messages_of(MessageKind::kPlan), 1);
  EXPECT_EQ(t.messages_of(MessageKind::kData), 2);
  EXPECT_EQ(t.bytes_of(MessageKind::kPlan), 100);
  EXPECT_EQ(t.bytes_of(MessageKind::kData), 1050);
}

TEST(TransportTest, ThroughNodeAccounting) {
  Transport t;
  t.Send("client", "a", 100, MessageKind::kPlan);
  t.Send("a", "b", 1000, MessageKind::kData);  // never touches the client
  t.Send("b", "client", 50, MessageKind::kData);
  EXPECT_EQ(t.bytes_through("client"), 150);
  EXPECT_EQ(t.bytes_through("a"), 1100);
  EXPECT_EQ(t.bytes_through("b"), 1050);
  EXPECT_EQ(t.messages_through("client"), 2);
}

TEST(TransportTest, SimulatedTimeIsLatencyPlusBandwidth) {
  TransportOptions opts;
  opts.latency_seconds = 0.010;
  opts.bandwidth_bytes_per_second = 1000.0;
  Transport t(opts);
  double s = t.Send("client", "a", 500, MessageKind::kData);
  EXPECT_DOUBLE_EQ(s, 0.010 + 0.5);
  t.Send("a", "client", 1000, MessageKind::kData);
  EXPECT_DOUBLE_EQ(t.simulated_seconds(), 0.010 + 0.5 + 0.010 + 1.0);
}

TEST(TransportTest, PerLinkBreakdownAndReset) {
  Transport t;
  t.Send("client", "a", 10, MessageKind::kPlan);
  t.Send("client", "a", 20, MessageKind::kPlan);
  t.Send("a", "client", 5, MessageKind::kData);
  auto links = t.PerLink();
  EXPECT_EQ((links[{"client", "a"}].messages), 2);
  EXPECT_EQ((links[{"client", "a"}].bytes), 30);
  EXPECT_EQ((links[{"a", "client"}].messages), 1);
  t.Reset();
  EXPECT_EQ(t.total_messages(), 0);
  EXPECT_EQ(t.simulated_seconds(), 0.0);
}

// One metered attempt as the test itself saw it: the independent recount
// every running total is checked against.
struct Sent {
  std::string from;
  std::string to;
  int64_t bytes = 0;
  MessageKind kind = MessageKind::kControl;
  bool failed = false;
};

// Drives a seeded mix of Send and TrySend across four endpoints (a
// self-link included) while drops, spikes, a scripted partition, a
// dynamic partition and a down window all fire.
std::vector<Sent> DriveFaultyMix(Transport* t, uint64_t seed) {
  const std::vector<std::string> nodes = {kClientNode, "a", "b", "c"};
  Rng rng(seed);
  std::vector<Sent> sent;
  for (int i = 0; i < 2000; ++i) {
    if (i == 500) t->PartitionLink("a", "b");
    if (i == 1200) t->HealLink("a", "b");
    Sent m;
    m.from = nodes[rng.NextBounded(nodes.size())];
    m.to = nodes[rng.NextBounded(nodes.size())];
    m.bytes = rng.NextInt(0, 5000);
    m.kind = static_cast<MessageKind>(rng.NextBounded(3));
    if (rng.NextBool(0.2)) {
      t->Send(m.from, m.to, m.bytes, m.kind);
    } else {
      m.failed = !t->TrySend(m.from, m.to, m.bytes, m.kind).ok();
    }
    sent.push_back(std::move(m));
  }
  return sent;
}

FaultOptions MixFaults() {
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 0.1;
  f.latency_spike_probability = 0.05;
  f.seed = 99;
  f.partitioned_links = {{"c", kClientNode}};
  f.down_windows = {DownWindow{"b", 0.5, 1.5}};
  return f;
}

void ExpectTotalsMatch(const Transport& t, const std::vector<Sent>& sent) {
  int64_t bytes = 0, failed = 0, failed_bytes = 0;
  std::map<MessageKind, LinkStats> by_kind;
  std::map<std::string, LinkStats> through;
  std::map<std::pair<std::string, std::string>, LinkStats> links;
  for (const Sent& m : sent) {
    bytes += m.bytes;
    if (m.failed) {
      ++failed;
      failed_bytes += m.bytes;
    }
    for (LinkStats* s : {&by_kind[m.kind], &links[{m.from, m.to}],
                         &through[m.from]}) {
      ++s->messages;
      s->bytes += m.bytes;
    }
    if (m.to != m.from) {
      ++through[m.to].messages;
      through[m.to].bytes += m.bytes;
    }
  }
  EXPECT_EQ(t.total_messages(), static_cast<int64_t>(sent.size()));
  EXPECT_EQ(t.total_bytes(), bytes);
  EXPECT_EQ(t.failed_messages(), failed);
  EXPECT_EQ(t.failed_bytes(), failed_bytes);
  for (MessageKind k :
       {MessageKind::kPlan, MessageKind::kData, MessageKind::kControl}) {
    EXPECT_EQ(t.messages_of(k), by_kind[k].messages);
    EXPECT_EQ(t.bytes_of(k), by_kind[k].bytes);
  }
  for (const char* n : {"client", "a", "b", "c", "never-seen"}) {
    EXPECT_EQ(t.messages_through(n), through[n].messages) << n;
    EXPECT_EQ(t.bytes_through(n), through[n].bytes) << n;
  }
  auto per_link = t.PerLink();
  ASSERT_EQ(per_link.size(), links.size());
  for (const auto& [link, stats] : links) {
    EXPECT_EQ(per_link[link].messages, stats.messages);
    EXPECT_EQ(per_link[link].bytes, stats.bytes);
  }
}

TEST(TransportTest, RunningTotalsMatchAnIndependentRecount) {
  Transport t;
  t.SetFaultOptions(MixFaults());
  std::vector<Sent> sent;
  QueryProfile profile;
  {
    ScopedQuery query;
    sent = DriveFaultyMix(&t, 7);
    profile = query.profile();
  }
  ExpectTotalsMatch(t, sent);
  // Every fault kind fired, so the failed-attempt paths were exercised.
  std::map<std::string, int> faults;
  for (const FaultEvent& e : t.fault_log()) ++faults[e.what.substr(0, 4)];
  EXPECT_GT(faults["drop"], 0);
  EXPECT_GT(faults["spik"], 0);
  EXPECT_GT(faults["part"], 0);
  EXPECT_GT(faults["down"], 0);

  // The sending thread's query profile saw exactly the same traffic.
  EXPECT_EQ(profile[QueryStat::kMessages], t.total_messages());
  EXPECT_EQ(profile[QueryStat::kBytes], t.total_bytes());
  EXPECT_EQ(profile[QueryStat::kFailedMessages], t.failed_messages());
  EXPECT_EQ(profile[QueryStat::kPlanMessages],
            t.messages_of(MessageKind::kPlan));
  EXPECT_EQ(profile[QueryStat::kDataBytes], t.bytes_of(MessageKind::kData));
  EXPECT_EQ(profile[QueryStat::kControlBytes],
            t.bytes_of(MessageKind::kControl));
  EXPECT_EQ(profile[QueryStat::kClientBytes], t.bytes_through(kClientNode));
  EXPECT_NEAR(profile.simulated_seconds(), t.simulated_seconds(),
              1e-9 * t.simulated_seconds());
}

TEST(TransportTest, ResetZeroesEveryTotalAndKeepsFaultOptions) {
  Transport t;
  t.SetFaultOptions(MixFaults());
  std::vector<Sent> first = DriveFaultyMix(&t, 11);
  const int64_t bytes = t.total_bytes();
  const int64_t failed = t.failed_messages();
  const double sim = t.simulated_seconds();
  t.Reset();
  ExpectTotalsMatch(t, {});
  EXPECT_TRUE(t.PerLink().empty());
  EXPECT_EQ(t.simulated_seconds(), 0.0);
  EXPECT_EQ(t.faults_injected(), 0);
  EXPECT_TRUE(t.fault_options().enabled);
  EXPECT_EQ(t.fault_options().drop_probability, 0.1);
  EXPECT_EQ(t.fault_options().down_windows.size(), 1u);
  // The fault RNG is reseeded, so the same traffic replays identically.
  std::vector<Sent> second = DriveFaultyMix(&t, 11);
  ExpectTotalsMatch(t, second);
  EXPECT_EQ(t.total_bytes(), bytes);
  EXPECT_EQ(t.failed_messages(), failed);
  EXPECT_EQ(t.simulated_seconds(), sim);
}

TEST(ClusterTest, ServerRegistrationRules) {
  Cluster c;
  EXPECT_OK(c.AddServer("a", MakeReferenceProvider()));
  EXPECT_FALSE(c.AddServer("a", MakeReferenceProvider()).ok());  // duplicate
  EXPECT_FALSE(c.AddServer("client", MakeReferenceProvider()).ok());
  EXPECT_FALSE(c.AddServer("", MakeReferenceProvider()).ok());
  EXPECT_FALSE(c.AddServer("b", nullptr).ok());
  EXPECT_EQ(c.ServerNames(), (std::vector<std::string>{"a"}));
  EXPECT_NE(c.provider("a"), nullptr);
  EXPECT_EQ(c.provider("zz"), nullptr);
}

TEST(ClusterTest, HoldersReflectCatalogs) {
  Cluster c;
  ASSERT_OK(c.AddServer("a", MakeReferenceProvider()));
  ASSERT_OK(c.AddServer("b", MakeReferenceProvider()));
  SchemaPtr s = testing::MakeSchema({Field::Attr("x", DataType::kInt64)});
  ASSERT_OK(c.PutData("a", "t", Dataset(Table::Empty(s))));
  ASSERT_OK(c.PutData("b", "t", Dataset(Table::Empty(s))));
  ASSERT_OK(c.PutData("b", "u", Dataset(Table::Empty(s))));
  EXPECT_EQ(c.HoldersOf("t"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(c.HoldersOf("u"), (std::vector<std::string>{"b"}));
  EXPECT_TRUE(c.HoldersOf("nope").empty());
  EXPECT_FALSE(c.PutData("zz", "t", Dataset(Table::Empty(s))).ok());
}

TEST(TransportTest, WireFormatNegotiationRequiresBothEndsBinary) {
  Transport t;
  t.SetNodeBinaryCapable("modern", true);
  t.SetNodeBinaryCapable("legacy", false);
  // Both ends binary-capable (the client is never registered and is always
  // capable) -> binary.
  EXPECT_EQ(t.NegotiatedFormat("modern", kClientNode), WireFormat::kBinary);
  EXPECT_EQ(t.NegotiatedFormat(kClientNode, "modern"), WireFormat::kBinary);
  // Unregistered endpoints are assumed capable: absence means "no objection".
  EXPECT_EQ(t.NegotiatedFormat("modern", "never-registered"),
            WireFormat::kBinary);
  // A text-only end drags any pairing down to text.
  EXPECT_EQ(t.NegotiatedFormat("modern", "legacy"), WireFormat::kText);
  EXPECT_EQ(t.NegotiatedFormat("legacy", kClientNode), WireFormat::kText);
  EXPECT_EQ(t.NegotiatedFormat("legacy", "legacy"), WireFormat::kText);
}

TEST(TransportTest, TextOnlyServersNegotiateTextOnEveryLink) {
  // A text-only deployment marks every server text-only: each link,
  // client-facing or server-to-server, negotiates text, and the federated
  // answer equals the binary run's over the same conversation shape.
  auto build = [](bool text_only) {
    auto c = std::make_unique<Cluster>();
    EXPECT_OK(c->AddServer("relstore", MakeRelationalProvider()));
    EXPECT_OK(c->AddServer("reference", MakeReferenceProvider()));
    SchemaPtr orders = testing::MakeSchema({Field::Attr("k", DataType::kInt64),
                                            Field::Attr("v", DataType::kFloat64)});
    SchemaPtr rates = testing::MakeSchema({Field::Attr("rk", DataType::kInt64),
                                           Field::Attr("r", DataType::kFloat64)});
    std::vector<std::vector<Value>> o, r;
    for (int64_t i = 0; i < 200; ++i) {
      o.push_back({testing::I(i % 7), testing::F(static_cast<double>(i) / 8)});
    }
    for (int64_t k = 0; k < 7; ++k) {
      r.push_back({testing::I(k), testing::F(1 + static_cast<double>(k) / 4)});
    }
    EXPECT_OK(c->PutData("relstore", "orders",
                         Dataset(testing::MakeTable(orders, o))));
    EXPECT_OK(c->PutData("reference", "rates",
                         Dataset(testing::MakeTable(rates, r))));
    if (text_only) {
      for (const std::string& s : c->ServerNames()) {
        c->transport()->SetNodeBinaryCapable(s, false);
      }
    }
    return c;
  };
  PlanPtr q = Plan::Aggregate(
      Plan::Extend(Plan::Join(Plan::Scan("orders"), Plan::Scan("rates"),
                              JoinType::kInner, {"k"}, {"rk"}),
                   {{"w", exprs::Mul(exprs::Col("v"), exprs::Col("r"))}}),
      {"k"}, {AggSpec{AggFunc::kSum, exprs::Col("w"), "sw"}});

  std::unique_ptr<Cluster> binary = build(false);
  Coordinator bin_coord(binary.get());
  ExecutionMetrics bin_m;
  ASSERT_OK_AND_ASSIGN(Dataset want, bin_coord.Execute(q, &bin_m));

  std::unique_ptr<Cluster> text = build(true);
  const Transport& t = *text->transport();
  EXPECT_EQ(t.NegotiatedFormat("relstore", "reference"), WireFormat::kText);
  for (const std::string& s : text->ServerNames()) {
    EXPECT_EQ(t.NegotiatedFormat(s, kClientNode), WireFormat::kText) << s;
    EXPECT_EQ(t.NegotiatedFormat(kClientNode, s), WireFormat::kText) << s;
  }
  Coordinator text_coord(text.get());
  ExecutionMetrics text_m;
  ASSERT_OK_AND_ASSIGN(Dataset got, text_coord.Execute(q, &text_m));
  EXPECT_TRUE(got.LogicallyEquals(want));
  EXPECT_EQ(text_m.profile[QueryStat::kMessages],
            bin_m.profile[QueryStat::kMessages]);
  EXPECT_GT(text_m.profile[QueryStat::kBytes],
            bin_m.profile[QueryStat::kBytes]);
}

TEST(ClusterTest, AddServerRegistersBinaryCapability) {
  Cluster c;
  ASSERT_OK(c.AddServer("modern", MakeReferenceProvider()));
  ASSERT_OK(c.AddServer("legacy", MakeReferenceProvider(/*text_only=*/true)));
  EXPECT_EQ(c.transport()->NegotiatedFormat("modern", kClientNode),
            WireFormat::kBinary);
  EXPECT_EQ(c.transport()->NegotiatedFormat("legacy", kClientNode),
            WireFormat::kText);
  EXPECT_EQ(c.transport()->NegotiatedFormat("modern", "legacy"),
            WireFormat::kText);
}


}  // namespace
}  // namespace nexus
