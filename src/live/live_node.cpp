#include "live/live_node.hpp"

#include <algorithm>
#include <stdexcept>

namespace dg::live {

LiveNode::LiveNode(graph::NodeId id, const graph::Graph& overlay,
                   LiveNodeSender& sender, core::ForwardingConfig config)
    : id_(id),
      overlay_(&overlay),
      sender_(&sender),
      core_(overlay, config, kMaxNackSequences) {
  if (overlay.edgeCount() > 64) {
    throw std::length_error(
        "LiveNode: stamped forwarding supports at most 64 directed overlay "
        "edges");
  }
}

FlowStatsEntry& LiveNode::statsFor(net::FlowId flow) {
  FlowStatsEntry& entry = flowStats_[flow];
  entry.flow = flow;
  return entry;
}

void LiveNode::originate(const LiveFlow& flow, net::SequenceNumber sequence,
                         util::SimTime now) {
  Message message;
  message.type = MessageType::Data;
  message.sender = id_;
  message.flow = flow.id;
  message.sequence = sequence;
  message.originTime = now;
  message.deadline = flow.deadline;
  message.graphMask = flow.graphMask;
  message.source = flow.source;
  message.destination = flow.destination;
  ++statsFor(flow.id).sent;
  core_.originated(message);
  if (message.graphMask == 0) return;  // live mode is always stamped
  core_.forward(message, graph::kInvalidEdge, now, message.deadline,
                overlay_->outEdges(id_), *this);
}

void LiveNode::handleMessage(const Message& message, util::SimTime now) {
  if (message.type != MessageType::Data &&
      message.type != MessageType::Retransmission &&
      message.type != MessageType::Nack)
    return;  // membership/control messages are the daemon's business
  // The wire admits any 16-bit edge id: a message on an edge the overlay
  // lacks, or on one that does not end here, cannot have reached this
  // node legitimately and must not reach an edge lookup.
  if (message.edge >= overlay_->edgeCount() ||
      overlay_->edge(message.edge).to != id_) {
    ++misroutedDropped_;
    return;
  }
  if (message.type == MessageType::Nack) {
    core_.handleNack(message.edge, message, *this);
  } else {
    handleData(message, now);
  }
}

void LiveNode::handleData(const Message& message, util::SimTime now) {
  if (!core_.admit(message.edge, message, *this)) return;
  if (id_ == message.destination) {
    FlowStatsEntry& stats = statsFor(message.flow);
    const util::SimTime latency = now - message.originTime;
    if (latency <= message.deadline) {
      ++stats.deliveredOnTime;
    } else {
      ++stats.deliveredLate;
    }
    stats.latencySumUs +=
        static_cast<std::uint64_t>(std::max<util::SimTime>(latency, 0));
    // A destination can still have member out-edges (e.g. flooding); fall
    // through so the dissemination semantics stay uniform.
  }
  if (message.graphMask == 0) return;  // live mode is always stamped
  core_.forward(message, message.edge, now, message.deadline,
                overlay_->outEdges(id_), *this);
}

void LiveNode::send(graph::EdgeId edge, Message&& message) {
  message.sender = id_;
  message.edge = edge;
  if (message.type != MessageType::Nack) {
    ++statsFor(message.flow).transmissions;
  }
  sender_->sendOnEdge(edge, message);
}

}  // namespace dg::live
