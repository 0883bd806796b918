#include "net/network.hpp"

#include <gtest/gtest.h>

namespace sqos::net {
namespace {

LatencyModel fixed_latency(SimTime base = SimTime::micros(200)) {
  LatencyModel::Params p;
  p.base = base;
  p.link_rate = Bandwidth::mbps(1000.0);
  p.jitter_mean = SimTime::zero();  // deterministic for the tests
  return LatencyModel{p, Rng{1}};
}

TEST(Network, RegisterAssignsDenseIds) {
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  const NodeId a = net.register_node("MM");
  const NodeId b = net.register_node("RM1");
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(net.node_name(a), "MM");
  EXPECT_EQ(net.node_name(b), "RM1");
  EXPECT_EQ(net.node_count(), 2u);
}

TEST(Network, DeliversAfterLatency) {
  sim::Simulator sim;
  Network net{sim, fixed_latency(SimTime::micros(500))};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  SimTime delivered_at;
  net.send(a, b, MessageKind::kCfp, Bytes::of(0), [&] { delivered_at = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered_at, SimTime::micros(500));
}

TEST(Network, LatencyIncludesSerialization) {
  sim::Simulator sim;
  Network net{sim, fixed_latency(SimTime::zero())};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  SimTime delivered_at;
  // 125'000 bytes at 1 Gbit/s = 1 ms.
  net.send(a, b, MessageKind::kBid, Bytes::of(125'000), [&] { delivered_at = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered_at, SimTime::millis(1));
}

TEST(Network, AccountsPerKindAndPerNode) {
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  net.send(a, b, MessageKind::kCfp, Bytes::of(100), [] {});
  net.send(a, b, MessageKind::kCfp, Bytes::of(50), [] {});
  net.send(b, a, MessageKind::kBid, Bytes::of(10), [] {});
  sim.run();

  EXPECT_EQ(net.stats().total_messages, 3u);
  EXPECT_EQ(net.stats().total_bytes, 160u);
  EXPECT_EQ(net.stats().count(MessageKind::kCfp), 2u);
  EXPECT_EQ(net.stats().bytes(MessageKind::kCfp), 150u);
  EXPECT_EQ(net.stats().count(MessageKind::kBid), 1u);

  EXPECT_EQ(net.node_sent(a).total_messages, 2u);
  EXPECT_EQ(net.node_sent(a).total_bytes, 150u);
  EXPECT_EQ(net.node_received(a).total_messages, 1u);
  EXPECT_EQ(net.node_received(a).total_bytes, 10u);
  EXPECT_EQ(net.node_sent(b).total_messages, 1u);
  EXPECT_EQ(net.node_sent(b).total_bytes, 10u);
  EXPECT_EQ(net.node_received(b).total_messages, 2u);
  EXPECT_EQ(net.node_received(b).total_bytes, 150u);
}

TEST(Network, CutLinkCountsTheSenderButNotTheReceiver) {
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  net.set_link_down(a, b);
  bool delivered = false;
  net.send(a, b, MessageKind::kCfp, Bytes::of(40), [&] { delivered = true; });
  sim.run();

  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.stats().total_messages, 1u);
  EXPECT_EQ(net.stats().dropped_messages, 1u);
  EXPECT_EQ(net.node_sent(a).total_messages, 1u);
  EXPECT_EQ(net.node_sent(a).total_bytes, 40u);
  EXPECT_EQ(net.node_received(b).total_messages, 0u);
  EXPECT_EQ(net.node_received(b).total_bytes, 0u);

  net.set_link_up(a, b);
  net.send(a, b, MessageKind::kCfp, Bytes::of(40), [&] { delivered = true; });
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.stats().dropped_messages, 1u);
  EXPECT_EQ(net.node_sent(a).total_messages, 2u);
  EXPECT_EQ(net.node_received(b).total_messages, 1u);
  EXPECT_EQ(net.node_received(b).total_bytes, 40u);
}

TEST(Network, ResetStatsKeepsTopology) {
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  net.send(a, b, MessageKind::kRegister, Bytes::of(10), [] {});
  sim.run();
  net.reset_stats();
  EXPECT_EQ(net.stats().total_messages, 0u);
  EXPECT_EQ(net.node_sent(a).total_messages, 0u);
  EXPECT_EQ(net.node_count(), 2u);
}

TEST(Network, ResetStatsZeroesPerNodeTotals) {
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  net.send(a, b, MessageKind::kCfp, Bytes::of(30), [] {});
  net.send(b, a, MessageKind::kBid, Bytes::of(20), [] {});
  sim.run();
  ASSERT_EQ(net.node_sent(a).total_bytes, 30u);  // read before the reset
  net.send(a, b, MessageKind::kCfp, Bytes::of(5), [] {});  // pending at the reset
  net.reset_stats();
  sim.run();

  for (const NodeId n : {a, b}) {
    EXPECT_EQ(net.node_sent(n).total_messages, 0u);
    EXPECT_EQ(net.node_sent(n).total_bytes, 0u);
    EXPECT_EQ(net.node_received(n).total_messages, 0u);
    EXPECT_EQ(net.node_received(n).total_bytes, 0u);
  }
  net.send(b, a, MessageKind::kBid, Bytes::of(7), [] {});
  EXPECT_EQ(net.node_sent(b).total_messages, 1u);
  EXPECT_EQ(net.node_received(a).total_bytes, 7u);
}

TEST(Network, MessagesPreserveCausality) {
  // A request/reply round trip must deliver strictly after the request.
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  std::vector<int> order;
  net.send(a, b, MessageKind::kResourceQuery, Bytes::of(8), [&] {
    order.push_back(1);
    net.send(b, a, MessageKind::kResourceReply, Bytes::of(8), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(MessageKind, AllKindsHaveNames) {
  for (std::size_t k = 0; k < kMessageKindCount; ++k) {
    EXPECT_NE(to_string(static_cast<MessageKind>(k)), "unknown");
  }
}

TEST(LatencyModelTest, JitterIsNonNegativeAndVaries) {
  LatencyModel::Params p;
  p.base = SimTime::micros(100);
  p.jitter_mean = SimTime::micros(50);
  LatencyModel m{p, Rng{42}};
  SimTime first = m.sample(Bytes::of(0));
  bool varied = false;
  for (int i = 0; i < 100; ++i) {
    const SimTime s = m.sample(Bytes::of(0));
    EXPECT_GE(s, p.base);
    varied |= s != first;
  }
  EXPECT_TRUE(varied);
}

TEST(NodeIdTest, InvalidAndHash) {
  NodeId invalid;
  EXPECT_FALSE(invalid.is_valid());
  EXPECT_EQ(invalid.to_string(), "node<invalid>");
  NodeId valid{3};
  EXPECT_TRUE(valid.is_valid());
  EXPECT_EQ(valid.to_string(), "node3");
  EXPECT_EQ(std::hash<NodeId>{}(valid), std::hash<std::uint32_t>{}(3u));
}

}  // namespace
}  // namespace sqos::net
