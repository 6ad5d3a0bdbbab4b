// LiveNode forwarding engine over an in-memory sender: stamped-mask
// fan-out, no-echo, duplicate suppression, forwarding expiry, delivery
// classification at the destination, and the per-hop NACK recovery
// round trip (gap -> NACK on reverse edge -> retransmission -> first
// copy counts as a recovery). The rules themselves live in the shared
// forwarding core; these pin the live driver's view of them (per-hop
// header, in-band flow metadata, wire-capped NACKs, delivery stats).
#include "live/live_node.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

namespace dg {
namespace {

class RecordingSender : public live::LiveNodeSender {
 public:
  struct Sent {
    graph::EdgeId edge;
    live::Message message;
  };

  void sendOnEdge(graph::EdgeId edge, const live::Message& message) override {
    sent.push_back({edge, message});
  }

  std::vector<Sent> sent;
};

/// Diamond A(0) -> {B(1), C(2)} -> D(3), all links bidirectional:
/// edges 0,1 A-B; 2,3 A-C; 4,5 B-D; 6,7 C-D.
graph::Graph diamond() {
  graph::Graph g;
  g.addNodes(4);
  g.addBidirectional(0, 1, util::milliseconds(10));
  g.addBidirectional(0, 2, util::milliseconds(10));
  g.addBidirectional(1, 3, util::milliseconds(10));
  g.addBidirectional(2, 3, util::milliseconds(10));
  return g;
}

/// Both forward paths of the diamond: A->B->D and A->C->D.
constexpr std::uint64_t kTwoPathMask = (1u << 0) | (1u << 2) | (1u << 4) |
                                       (1u << 6);

live::LiveFlow diamondFlow() {
  live::LiveFlow flow;
  flow.id = 7;
  flow.source = 0;
  flow.destination = 3;
  flow.deadline = util::milliseconds(65);
  flow.graphMask = kTwoPathMask;
  return flow;
}

live::Message arrival(const live::LiveFlow& flow, graph::EdgeId edge,
                      net::SequenceNumber sequence, util::SimTime originTime) {
  live::Message m;
  m.type = live::MessageType::Data;
  m.sender = 0;
  m.edge = edge;
  m.flow = flow.id;
  m.sequence = sequence;
  m.originTime = originTime;
  m.deadline = flow.deadline;
  m.graphMask = flow.graphMask;
  m.source = flow.source;
  m.destination = flow.destination;
  return m;
}

TEST(LiveNode, OriginateFansOutOnMaskedOutEdges) {
  const graph::Graph g = diamond();
  RecordingSender sender;
  live::LiveNode node(0, g, sender);
  node.originate(diamondFlow(), 0, util::milliseconds(100));

  ASSERT_EQ(sender.sent.size(), 2u);
  EXPECT_EQ(sender.sent[0].edge, 0u);
  EXPECT_EQ(sender.sent[1].edge, 2u);
  for (const auto& s : sender.sent) {
    EXPECT_EQ(s.message.type, live::MessageType::Data);
    EXPECT_EQ(s.message.sender, 0u);
    EXPECT_EQ(s.message.edge, s.edge);
    EXPECT_EQ(s.message.graphMask, kTwoPathMask);
  }
  const auto& stats = node.flowStats().at(7);
  EXPECT_EQ(stats.sent, 1u);
  EXPECT_EQ(stats.transmissions, 2u);
}

TEST(LiveNode, NoEchoBackToTheArrivalNeighbor) {
  const graph::Graph g = diamond();
  RecordingSender sender;
  live::LiveNode node(1, g, sender);
  // Mask deliberately includes B's echo edge (1: B->A) alongside the
  // forward edge (4: B->D); the no-echo rule must win over the mask.
  live::LiveFlow flow = diamondFlow();
  flow.graphMask = (1u << 0) | (1u << 1) | (1u << 4);
  node.handleMessage(arrival(flow, 0, 0, util::milliseconds(100)),
                     util::milliseconds(110));

  ASSERT_EQ(sender.sent.size(), 1u);
  EXPECT_EQ(sender.sent[0].edge, 4u);
}

TEST(LiveNode, DuplicateSecondCopyDropped) {
  const graph::Graph g = diamond();
  RecordingSender sender;
  live::LiveNode node(3, g, sender);
  const live::LiveFlow flow = diamondFlow();
  // The same packet arrives over both diamond branches.
  node.handleMessage(arrival(flow, 4, 0, util::milliseconds(100)),
                     util::milliseconds(120));
  node.handleMessage(arrival(flow, 6, 0, util::milliseconds(100)),
                     util::milliseconds(125));

  EXPECT_EQ(node.duplicatesDropped(), 1u);
  const auto& stats = node.flowStats().at(7);
  EXPECT_EQ(stats.deliveredOnTime, 1u);
  EXPECT_EQ(stats.deliveredLate, 0u);
}

TEST(LiveNode, ExpiredPacketIsDroppedNotForwarded) {
  const graph::Graph g = diamond();
  RecordingSender sender;
  live::LiveNode node(1, g, sender);
  const live::LiveFlow flow = diamondFlow();
  // Age at forward time equals the deadline: too old to be useful.
  node.handleMessage(arrival(flow, 0, 0, util::milliseconds(100)),
                     util::milliseconds(100) + flow.deadline);

  EXPECT_TRUE(sender.sent.empty());
  EXPECT_EQ(node.expiredDropped(), 1u);
}

TEST(LiveNode, DestinationClassifiesOnTimeAndLate) {
  const graph::Graph g = diamond();
  RecordingSender sender;
  live::LiveNode node(3, g, sender);
  const live::LiveFlow flow = diamondFlow();
  node.handleMessage(arrival(flow, 4, 0, util::milliseconds(100)),
                     util::milliseconds(100) + flow.deadline);  // boundary
  node.handleMessage(arrival(flow, 4, 1, util::milliseconds(100)),
                     util::milliseconds(100) + flow.deadline + 1);

  const auto& stats = node.flowStats().at(7);
  EXPECT_EQ(stats.deliveredOnTime, 1u);
  EXPECT_EQ(stats.deliveredLate, 1u);
  EXPECT_EQ(stats.latencySumUs,
            static_cast<std::uint64_t>(2 * flow.deadline + 1));
}

/// Link A(0) <-> B(1): edges 0 (A->B), 1 (B->A); flow terminates at B.
struct LinkPair {
  graph::Graph g;
  live::LiveFlow flow;

  LinkPair() {
    g.addNodes(2);
    g.addBidirectional(0, 1, util::milliseconds(10));
    flow.id = 3;
    flow.source = 0;
    flow.destination = 1;
    flow.deadline = util::milliseconds(65);
    flow.graphMask = 1u << 0;
  }
};

TEST(LiveNode, GapTriggersNackRetransmissionAndRecovery) {
  LinkPair link;
  RecordingSender senderA;
  RecordingSender senderB;
  live::LiveNode a(0, link.g, senderA);
  live::LiveNode b(1, link.g, senderB);

  const auto deliverToB = [&](std::size_t i, util::SimTime now) {
    b.handleMessage(senderA.sent[i].message, now);
  };

  a.originate(link.flow, 0, util::milliseconds(100));
  a.originate(link.flow, 1, util::milliseconds(200));
  a.originate(link.flow, 2, util::milliseconds(300));
  ASSERT_EQ(senderA.sent.size(), 3u);

  deliverToB(0, util::milliseconds(110));
  deliverToB(2, util::milliseconds(310));  // sequence 1 was "lost"

  // B detected the gap and NACKed exactly sequence 1 on the reverse edge.
  ASSERT_EQ(senderB.sent.size(), 1u);
  EXPECT_EQ(b.nacksSent(), 1u);
  const live::Message& nack = senderB.sent[0].message;
  EXPECT_EQ(nack.type, live::MessageType::Nack);
  EXPECT_EQ(nack.edge, 1u);
  EXPECT_EQ(nack.nackSequences, (std::vector<net::SequenceNumber>{1}));

  // A retransmits from its per-(edge, flow) buffer...
  a.handleMessage(nack, util::milliseconds(315));
  ASSERT_EQ(senderA.sent.size(), 4u);
  EXPECT_EQ(a.retransmissionsSent(), 1u);
  const live::Message& retransmission = senderA.sent[3].message;
  EXPECT_EQ(retransmission.type, live::MessageType::Retransmission);
  EXPECT_EQ(retransmission.sequence, 1u);

  // ...and the retransmission is B's first copy: a recovery, delivered.
  b.handleMessage(retransmission, util::milliseconds(320));
  EXPECT_EQ(b.nackRecoveries(), 1u);
  const auto& stats = b.flowStats().at(3);
  EXPECT_EQ(stats.deliveredOnTime, 2u);
  EXPECT_EQ(stats.deliveredLate, 1u);  // seq 1 recovered past its deadline
}

TEST(LiveNode, RetransmissionOfSeenSequenceIsNotARecovery) {
  LinkPair link;
  RecordingSender sender;
  live::LiveNode b(1, link.g, sender);
  const live::Message data = [&] {
    live::Message m;
    m.type = live::MessageType::Data;
    m.sender = 0;
    m.edge = 0;
    m.flow = link.flow.id;
    m.sequence = 0;
    m.originTime = util::milliseconds(100);
    m.deadline = link.flow.deadline;
    m.graphMask = link.flow.graphMask;
    m.source = 0;
    m.destination = 1;
    return m;
  }();
  b.handleMessage(data, util::milliseconds(110));
  live::Message again = data;
  again.type = live::MessageType::Retransmission;
  b.handleMessage(again, util::milliseconds(120));

  EXPECT_EQ(b.nackRecoveries(), 0u);
  EXPECT_EQ(b.duplicatesDropped(), 1u);
}

TEST(LiveNode, RecoveryDisabledSendsNoNacks) {
  LinkPair link;
  live::LiveNodeConfig config;
  config.recoveryEnabled = false;
  RecordingSender senderA;
  RecordingSender senderB;
  live::LiveNode a(0, link.g, senderA, config);
  live::LiveNode b(1, link.g, senderB, config);

  a.originate(link.flow, 0, util::milliseconds(100));
  a.originate(link.flow, 1, util::milliseconds(200));
  a.originate(link.flow, 2, util::milliseconds(300));
  b.handleMessage(senderA.sent[0].message, util::milliseconds(110));
  b.handleMessage(senderA.sent[2].message, util::milliseconds(310));

  EXPECT_TRUE(senderB.sent.empty());
  EXPECT_EQ(b.nacksSent(), 0u);
}

TEST(LiveNode, EvictedSequencesCannotBeRetransmitted) {
  LinkPair link;
  RecordingSender senderA;
  RecordingSender senderB;
  live::LiveNode a(0, link.g, senderA);
  live::LiveNode b(1, link.g, senderB);

  for (net::SequenceNumber seq = 0; seq < 70; ++seq) {
    a.originate(link.flow, seq, util::milliseconds(1));
  }
  // Only sequence 69 arrives: B NACKs 0..68, but A's 64-deep buffer
  // only still holds 6..68 (69 was never requested).
  b.handleMessage(senderA.sent[69].message, util::milliseconds(10));
  ASSERT_EQ(senderB.sent.size(), 1u);
  EXPECT_EQ(senderB.sent[0].message.nackSequences.size(), 69u);

  a.handleMessage(senderB.sent[0].message, util::milliseconds(15));
  EXPECT_EQ(a.retransmissionsSent(), 63u);
  std::vector<net::SequenceNumber> recovered;
  for (std::size_t i = 70; i < senderA.sent.size(); ++i) {
    recovered.push_back(senderA.sent[i].message.sequence);
  }
  std::vector<net::SequenceNumber> expected(63);
  std::iota(expected.begin(), expected.end(), net::SequenceNumber{6});
  EXPECT_EQ(recovered, expected);
}

TEST(LiveNode, LateFillAfterNackDoesNotRenack) {
  LinkPair link;
  RecordingSender senderA;
  RecordingSender senderB;
  live::LiveNode a(0, link.g, senderA);
  live::LiveNode b(1, link.g, senderB);

  a.originate(link.flow, 0, util::milliseconds(100));
  a.originate(link.flow, 1, util::milliseconds(200));
  b.handleMessage(senderA.sent[1].message, util::milliseconds(210));
  ASSERT_EQ(b.nacksSent(), 1u);
  // The original copy of 0 straggles in after the NACK: a late fill,
  // not a new gap.
  b.handleMessage(senderA.sent[0].message, util::milliseconds(220));
  EXPECT_EQ(b.nacksSent(), 1u);
  EXPECT_EQ(senderB.sent.size(), 1u);
}

TEST(LiveNode, MisroutedEdgeMessagesAreDroppedBeforeAnyEdgeLookup) {
  const graph::Graph g = diamond();
  RecordingSender sender;
  live::LiveNode node(1, g, sender);
  const live::LiveFlow flow = diamondFlow();
  // Edge ids the wire can carry but the 8-edge overlay lacks. A gap
  // sequence would NACK on the reverse edge; a retransmission and a NACK
  // would look up buffers by edge.
  live::Message gap = arrival(flow, 0xFFFE, 5, util::milliseconds(100));
  live::Message retransmission = gap;
  retransmission.type = live::MessageType::Retransmission;
  live::Message nack = gap;
  nack.type = live::MessageType::Nack;
  nack.nackSequences = {1, 2};
  // A real edge that ends at C, not at B.
  const live::Message wrongEnd = arrival(flow, 2, 0, util::milliseconds(100));
  for (const live::Message& m : {gap, retransmission, nack, wrongEnd})
    node.handleMessage(m, util::milliseconds(110));

  EXPECT_EQ(node.misroutedDropped(), 4u);
  EXPECT_TRUE(sender.sent.empty());
  EXPECT_EQ(node.nacksSent(), 0u);
  EXPECT_TRUE(node.flowStats().empty());

  // A well-routed copy still forwards.
  node.handleMessage(arrival(flow, 0, 0, util::milliseconds(100)),
                     util::milliseconds(110));
  EXPECT_EQ(sender.sent.size(), 1u);
  EXPECT_EQ(node.misroutedDropped(), 4u);
}

TEST(LiveNode, RejectsOverlaysBeyondSixtyFourEdges) {
  // A 40-node bidirectional ring has 80 directed edges: a graph mask
  // cannot name edges 64..79, so no live node may run on it.
  graph::Graph ring;
  ring.addNodes(40);
  for (graph::NodeId n = 0; n < 40; ++n) {
    ring.addBidirectional(n, (n + 1) % 40, util::milliseconds(10));
  }
  RecordingSender sender;
  EXPECT_THROW(live::LiveNode(1, ring, sender), std::length_error);
  EXPECT_NO_THROW(live::LiveNode(1, diamond(), sender));
}

}  // namespace
}  // namespace dg
