// The live overlay forwarding engine: dissemination-graph flooding with
// duplicate suppression plus the per-hop NACK recovery protocol, ported
// from core::OverlayNode onto real messages and a wall-clock timeline.
//
// Differences from the simulated node are strictly mechanical:
//   - packets are live::Message datagrams instead of net::Packet, and
//     leave through a LiveNodeSender instead of net::SimulatedNetwork;
//   - time is an explicit `now` argument (the daemon passes soak time);
//   - flow metadata (deadline, endpoints, graph mask) travels in-band,
//     so intermediate nodes need no flow directory -- only stamped
//     (distributed) mode exists live;
//   - state lives in std::map (src/live/ is dglint ordered scope).
// The forwarding rule, duplicate suppression, expiry check, no-echo
// rule, gap detection and retransmission buffering are line-for-line
// the simulator's semantics -- that is what makes the live-vs-model
// differential meaningful.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "core/sequence_window.hpp"
#include "graph/graph.hpp"
#include "live/wire.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace dg::live {

/// Where the node's outbound messages go. The daemon's implementation
/// serializes onto UDP (through the impairment shim); tests use an
/// in-memory fan-out.
class LiveNodeSender {
 public:
  virtual ~LiveNodeSender() = default;
  /// `message.edge` is the directed overlay edge to traverse.
  virtual void sendOnEdge(graph::EdgeId edge, const Message& message) = 0;
};

/// A flow this node originates: metadata stamped into every packet.
struct LiveFlow {
  net::FlowId id = 0;
  graph::NodeId source = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  util::SimTime deadline = 0;
  /// Dissemination graph as an edge bitmask (net::graphMaskOf).
  std::uint64_t graphMask = 0;
};

struct LiveNodeConfig {
  bool recoveryEnabled = true;
  /// Retransmission buffer per (out-edge, flow), in packets.
  std::size_t sendBufferPackets = 64;
};

class LiveNode {
 public:
  LiveNode(graph::NodeId id, const graph::Graph& overlay,
           LiveNodeSender& sender, LiveNodeConfig config = {});

  graph::NodeId id() const { return id_; }

  /// Injects a fresh data packet (this node must be the flow source).
  void originate(const LiveFlow& flow, net::SequenceNumber sequence,
                 util::SimTime now);

  /// Entry point for received edge messages (Data / Retransmission /
  /// Nack); other message types are ignored, and edge messages whose
  /// edge is not an overlay edge ending at this node are dropped
  /// (misroutedDropped()). `now` is soak time.
  void handleMessage(const Message& message, util::SimTime now);

  /// Per-flow delivery stats observed at this node (sent at the source,
  /// deliveries at the destination, transmissions everywhere), keyed by
  /// flow id -- exactly the StatsReply payload.
  const std::map<net::FlowId, FlowStatsEntry>& flowStats() const {
    return flowStats_;
  }

  std::uint64_t duplicatesDropped() const { return duplicatesDropped_; }
  /// Edge messages dropped for an out-of-range edge id or an edge that
  /// does not end at this node.
  std::uint64_t misroutedDropped() const { return misroutedDropped_; }
  std::uint64_t expiredDropped() const { return expiredDropped_; }
  std::uint64_t nacksSent() const { return nacksSent_; }
  std::uint64_t retransmissionsSent() const { return retransmissionsSent_; }
  /// Retransmissions that arrived as the first (useful) copy.
  std::uint64_t nackRecoveries() const { return nackRecoveries_; }

 private:
  struct ReceiveState {
    net::SequenceNumber expected = 0;
    core::SequenceWindow requested{1024};  ///< each gap NACKed at most once
  };
  struct SendBuffer {
    std::deque<Message> packets;
  };
  static std::uint64_t key(graph::EdgeId edge, net::FlowId flow) {
    return (static_cast<std::uint64_t>(edge) << 32) | flow;
  }

  FlowStatsEntry& statsFor(net::FlowId flow);
  void handleData(const Message& message, util::SimTime now);
  void handleNack(const Message& message, util::SimTime now);
  void forward(const Message& message, graph::EdgeId arrivalEdge,
               util::SimTime now);
  void noteSequenceForRecovery(const Message& message, util::SimTime now);
  void bufferForRetransmit(graph::EdgeId outEdge, const Message& message);

  graph::NodeId id_;
  const graph::Graph* overlay_;
  LiveNodeSender* sender_;
  LiveNodeConfig config_;

  std::map<net::FlowId, core::SequenceWindow> seen_;
  std::map<std::uint64_t, ReceiveState> receive_;
  std::map<std::uint64_t, SendBuffer> sendBuffers_;
  std::map<net::FlowId, FlowStatsEntry> flowStats_;

  std::uint64_t duplicatesDropped_ = 0;
  std::uint64_t misroutedDropped_ = 0;
  std::uint64_t expiredDropped_ = 0;
  std::uint64_t nacksSent_ = 0;
  std::uint64_t retransmissionsSent_ = 0;
  std::uint64_t nackRecoveries_ = 0;
};

}  // namespace dg::live
