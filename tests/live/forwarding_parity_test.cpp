// The simulator node and the live node drive one forwarding core, so the
// same loss pattern must make both recover the same packets. The gap
// here is longer than the live wire's NACK cap and the sender's
// retransmit depth: only the newest missing sequences are still
// recoverable, so a capped NACK must ask for those.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/overlay_node.hpp"
#include "live/live_node.hpp"
#include "test_support.hpp"

namespace dg {
namespace {

constexpr net::FlowId kFlow = 3;
constexpr net::SequenceNumber kLast = 400;  // 0 and kLast arrive, no more

/// Link A(0) <-> B(1): edges 0 (A->B), 1 (B->A); the flow runs A -> B.
graph::Graph link() {
  graph::Graph g;
  g.addNodes(2);
  g.addBidirectional(0, 1, util::milliseconds(10));
  return g;
}

bool lost(net::SequenceNumber sequence) {
  return sequence != 0 && sequence != kLast;
}

class OneFlow final : public core::FlowDirectory {
 public:
  OneFlow() {
    context_.id = kFlow;
    context_.flow = routing::Flow{0, 1};
    context_.deadline = util::milliseconds(65);
    context_.graphMask = 1u << 0;
  }
  const core::FlowContext* flowContext(net::FlowId id) const override {
    return id == kFlow ? &context_ : nullptr;
  }
  void onDelivered(net::FlowId, const net::Packet&) override {}
  const core::FlowContext& context() const { return context_; }

 private:
  core::FlowContext context_;
};

std::vector<net::SequenceNumber> simulatorRecovers() {
  const graph::Graph g = link();
  const trace::Trace trace = test::healthyTrace(g);
  net::Simulator sim;
  net::SimulatedNetwork network(sim, g, trace, 1);
  OneFlow directory;
  core::OverlayNode a(0, network, directory, {});
  core::OverlayNode b(1, network, directory, {});
  std::vector<net::SequenceNumber> retransmitted;
  network.setDeliveryHandler(0, [&](graph::EdgeId e, const net::Packet& p) {
    a.handlePacket(e, p);
  });
  network.setDeliveryHandler(1, [&](graph::EdgeId e, const net::Packet& p) {
    if (p.type == net::Packet::Type::Data && lost(p.sequence)) return;
    if (p.type == net::Packet::Type::Retransmission)
      retransmitted.push_back(p.sequence);
    b.handlePacket(e, p);
  });
  for (net::SequenceNumber seq = 0; seq <= kLast; ++seq) {
    a.originate(directory.context(), seq, sim.now());
  }
  sim.runUntil(util::seconds(1));
  return retransmitted;
}

class RecordingSender : public live::LiveNodeSender {
 public:
  void sendOnEdge(graph::EdgeId, const live::Message& message) override {
    sent.push_back(message);
  }
  std::vector<live::Message> sent;
};

std::vector<net::SequenceNumber> liveRecovers() {
  const graph::Graph g = link();
  RecordingSender senderA;
  RecordingSender senderB;
  live::LiveNode a(0, g, senderA);
  live::LiveNode b(1, g, senderB);
  live::LiveFlow flow;
  flow.id = kFlow;
  flow.source = 0;
  flow.destination = 1;
  flow.deadline = util::milliseconds(65);
  flow.graphMask = 1u << 0;
  for (net::SequenceNumber seq = 0; seq <= kLast; ++seq) {
    a.originate(flow, seq, 0);
  }
  for (const live::Message& m : senderA.sent) {
    if (!lost(m.sequence)) b.handleMessage(m, util::milliseconds(10));
  }
  const std::size_t originals = senderA.sent.size();
  for (const live::Message& nack : senderB.sent) {
    a.handleMessage(nack, util::milliseconds(20));
  }
  std::vector<net::SequenceNumber> retransmitted;
  for (std::size_t i = originals; i < senderA.sent.size(); ++i) {
    retransmitted.push_back(senderA.sent[i].sequence);
  }
  return retransmitted;
}

TEST(ForwardingParity, LongGapRecoversTheSameBufferedTail) {
  // A keeps the last 64 packets it sent (337..400); 400 arrived, so
  // 337..399 are the recoverable ones.
  std::vector<net::SequenceNumber> tail(63);
  std::iota(tail.begin(), tail.end(), net::SequenceNumber{337});
  EXPECT_EQ(simulatorRecovers(), tail);
  EXPECT_EQ(liveRecovers(), tail);
}

}  // namespace
}  // namespace dg
