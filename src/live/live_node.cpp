#include "live/live_node.hpp"

#include <algorithm>

namespace dg::live {

LiveNode::LiveNode(graph::NodeId id, const graph::Graph& overlay,
                   LiveNodeSender& sender, LiveNodeConfig config)
    : id_(id), overlay_(&overlay), sender_(&sender), config_(config) {}

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
  seen_.try_emplace(flow.id).first->second.insert(sequence);
  forward(message, graph::kInvalidEdge, now);
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
    handleNack(message, now);
  } else {
    handleData(message, now);
  }
}

void LiveNode::handleData(const Message& message, util::SimTime now) {
  // Per-hop recovery bookkeeping runs for every copy, even duplicates:
  // link sequencing is a property of the link, not of the flood.
  if (message.type == MessageType::Data && config_.recoveryEnabled) {
    noteSequenceForRecovery(message, now);
  }

  // First-copy suppression.
  auto& seen = seen_.try_emplace(message.flow).first->second;
  if (!seen.insert(message.sequence)) {
    ++duplicatesDropped_;
    return;
  }
  if (message.type == MessageType::Retransmission) ++nackRecoveries_;

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
  forward(message, message.edge, now);
}

// dgcheck: hot
void LiveNode::forward(const Message& message, graph::EdgeId arrivalEdge,
                       util::SimTime now) {
  if (message.graphMask == 0) return;  // live mode is always stamped
  const util::SimTime age = now - message.originTime;
  if (age >= message.deadline) {
    ++expiredDropped_;
    return;  // cannot be useful downstream anymore
  }
  const graph::NodeId arrivalNeighbor =
      arrivalEdge == graph::kInvalidEdge ? graph::kInvalidNode
                                         : overlay_->edge(arrivalEdge).from;
  for (const graph::EdgeId out : overlay_->outEdges(id_)) {
    if ((message.graphMask & (std::uint64_t{1} << out)) == 0) continue;
    if (overlay_->edge(out).to == arrivalNeighbor) continue;  // no echo
    Message copy = message;
    copy.type = MessageType::Data;
    copy.sender = id_;
    copy.edge = out;
    copy.nackSequences.clear();
    if (config_.recoveryEnabled) bufferForRetransmit(out, copy);
    ++statsFor(message.flow).transmissions;
    sender_->sendOnEdge(out, copy);
  }
}

void LiveNode::noteSequenceForRecovery(const Message& message,
                                       util::SimTime /*now*/) {
  ReceiveState& state = receive_[key(message.edge, message.flow)];
  if (message.sequence < state.expected) return;  // late fill, all good
  if (message.sequence == state.expected) {
    state.expected = message.sequence + 1;
    return;
  }
  // Gap: request every missing sequence exactly once. The wire caps a
  // Nack at kMaxNackSequences; sequences beyond the cap stay unmarked in
  // `requested` so a later gap can still claim them.
  Message nack;
  nack.type = MessageType::Nack;
  nack.sender = id_;
  nack.flow = message.flow;
  for (net::SequenceNumber missing = state.expected;
       missing < message.sequence; ++missing) {
    if (nack.nackSequences.size() >= kMaxNackSequences) break;
    if (state.requested.insert(missing)) {
      nack.nackSequences.push_back(missing);
    }
  }
  state.expected = message.sequence + 1;
  if (nack.nackSequences.empty()) return;
  const auto reverse = overlay_->reverseEdge(message.edge);
  if (!reverse) return;  // no reverse link: recovery impossible
  nack.edge = *reverse;
  ++nacksSent_;
  sender_->sendOnEdge(*reverse, nack);
}

void LiveNode::handleNack(const Message& message, util::SimTime /*now*/) {
  // The NACK arrived on the reverse of the data edge we sent on.
  const auto dataEdge = overlay_->reverseEdge(message.edge);
  if (!dataEdge) return;
  const auto it = sendBuffers_.find(key(*dataEdge, message.flow));
  if (it == sendBuffers_.end()) return;
  // Linear scan: the buffer is small and recovered packets re-enter it
  // out of sequence order, so it is not sorted.
  const auto& buffer = it->second.packets;
  for (const net::SequenceNumber seq : message.nackSequences) {
    const auto found = std::find_if(
        buffer.begin(), buffer.end(),
        [seq](const Message& m) { return m.sequence == seq; });
    if (found == buffer.end()) continue;
    Message retransmission = *found;
    retransmission.type = MessageType::Retransmission;
    retransmission.sender = id_;
    retransmission.edge = *dataEdge;
    ++retransmissionsSent_;
    ++statsFor(message.flow).transmissions;
    sender_->sendOnEdge(*dataEdge, retransmission);
  }
}

void LiveNode::bufferForRetransmit(graph::EdgeId outEdge,
                                   const Message& message) {
  SendBuffer& buffer = sendBuffers_[key(outEdge, message.flow)];
  buffer.packets.push_back(message);  // dgcheck: ok(R5): retransmit ring reuses deque capacity; bounded by the recovery window and amortized to zero
  while (buffer.packets.size() > config_.sendBufferPackets) {
    buffer.packets.pop_front();
  }
}

}  // namespace dg::live
