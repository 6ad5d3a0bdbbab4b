// The live daemon's driver of the shared forwarding core
// (core/forwarding_core.hpp): the same forwarding and per-hop recovery
// rules the simulator runs, on live::Message datagrams and a wall-clock
// timeline.
//
// What this driver adds around the core:
//   - messages leave through a LiveNodeSender, stamped with the per-hop
//     header (`sender`, `edge`);
//   - time is an explicit `now` argument (the daemon passes soak time);
//   - flow metadata (deadline, endpoints, graph mask) travels in-band,
//     so nodes need no flow directory -- only stamped (distributed) mode
//     exists live, which limits overlays to 64 directed edges;
//   - a NACK is capped at the wire's kMaxNackSequences;
//   - edge messages on an edge that does not end here are dropped;
//   - per-flow delivery accounting (flowStats()).
#pragma once

#include <cstdint>
#include <map>

#include "core/forwarding_core.hpp"
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

/// The node is configured by its forwarding rules alone.
using LiveNodeConfig = core::ForwardingConfig;

class LiveNode {
 public:
  /// Throws std::length_error when the overlay has more than 64 directed
  /// edges: graph masks cannot name the rest.
  LiveNode(graph::NodeId id, const graph::Graph& overlay,
           LiveNodeSender& sender, core::ForwardingConfig config = {});

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

  std::uint64_t duplicatesDropped() const { return core_.duplicatesDropped(); }
  /// Edge messages dropped for an out-of-range edge id or an edge that
  /// does not end at this node.
  std::uint64_t misroutedDropped() const { return misroutedDropped_; }
  std::uint64_t expiredDropped() const { return core_.expiredDropped(); }
  std::uint64_t nacksSent() const { return core_.nacksSent(); }
  std::uint64_t retransmissionsSent() const {
    return core_.retransmissionsSent();
  }
  /// Retransmissions that arrived as the first (useful) copy.
  std::uint64_t nackRecoveries() const { return core_.nackRecoveries(); }

 private:
  friend class core::ForwardingCore<Message, LiveNode>;

  FlowStatsEntry& statsFor(net::FlowId flow);
  void handleData(const Message& message, util::SimTime now);

  /// ForwardingCore sink: stamps the per-hop header and sends.
  void send(graph::EdgeId edge, Message&& message);

  graph::NodeId id_;
  const graph::Graph* overlay_;
  LiveNodeSender* sender_;
  core::ForwardingCore<Message, LiveNode> core_;
  std::map<net::FlowId, FlowStatsEntry> flowStats_;
  std::uint64_t misroutedDropped_ = 0;
};

}  // namespace dg::live
