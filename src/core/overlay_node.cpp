#include "core/overlay_node.hpp"

#include <algorithm>

namespace dg::core {

OverlayNode::OverlayNode(graph::NodeId id, net::SimulatedNetwork& network,
                         FlowDirectory& directory, ForwardingConfig config)
    : id_(id),
      network_(&network),
      directory_(&directory),
      core_(network.overlay(), config) {}

void OverlayNode::setTelemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  duplicatesCounter_ = nullptr;
  expiredCounter_ = nullptr;
  nacksCounter_ = nullptr;
  retransmissionsCounter_ = nullptr;
  linkStateFloodsCounter_ = nullptr;
  linkStateAcceptedCounter_ = nullptr;
  if (telemetry_ == nullptr) return;
  const telemetry::Labels labels{{"node", std::to_string(id_)}};
  duplicatesCounter_ = &telemetry_->metrics.counter(
      "dg_core_duplicates_dropped_total", labels);
  expiredCounter_ =
      &telemetry_->metrics.counter("dg_core_expired_dropped_total", labels);
  nacksCounter_ =
      &telemetry_->metrics.counter("dg_core_nacks_sent_total", labels);
  retransmissionsCounter_ = &telemetry_->metrics.counter(
      "dg_core_retransmissions_sent_total", labels);
  linkStateFloodsCounter_ = &telemetry_->metrics.counter(
      "dg_core_link_state_floods_total", labels);
  linkStateAcceptedCounter_ = &telemetry_->metrics.counter(
      "dg_core_link_state_accepted_total", labels);
}

void OverlayNode::setCrashed(bool crashed) {
  if (crashed_ == crashed) return;
  crashed_ = crashed;
  if (crashed) return;
  // Restart: soft state is gone. The link-state epoch deliberately
  // survives so peers' newest-epoch dedup accepts post-restart floods.
  core_.reset();
  if (linkState_) {
    LinkStateState& state = *linkState_;
    for (std::size_t e = 0; e < state.baseline.size(); ++e) {
      state.lossView[e] = state.baseline[e].lossRate;
      state.latencyView[e] = state.baseline[e].latency;
    }
    std::fill(state.probesReceived.begin(), state.probesReceived.end(), 0);
    std::fill(state.probeLatencySumUs.begin(), state.probeLatencySumUs.end(),
              0.0);
  }
}

void OverlayNode::handlePacket(graph::EdgeId arrivalEdge,
                               const net::Packet& packet) {
  if (crashed_) {
    ++crashDropped_;
    return;
  }
  switch (packet.type) {
    case net::Packet::Type::Data:
    case net::Packet::Type::Retransmission:
      handleData(arrivalEdge, packet);
      return;
    case net::Packet::Type::Nack:
      core_.handleNack(arrivalEdge, packet, *this);
      return;
    case net::Packet::Type::Probe:
      handleProbe(arrivalEdge, packet);
      return;
    case net::Packet::Type::LinkState:
      handleLinkState(arrivalEdge, packet);
      return;
  }
}

void OverlayNode::originate(const FlowContext& context,
                            net::SequenceNumber sequence,
                            util::SimTime originTime) {
  if (crashed_) return;
  net::Packet packet;
  packet.type = net::Packet::Type::Data;
  packet.flow = context.id;
  packet.sequence = sequence;
  packet.originTime = originTime;
  packet.graphMask = context.graphMask;
  core_.originated(packet);
  forward(context, packet, graph::kInvalidEdge);
}

void OverlayNode::handleData(graph::EdgeId arrivalEdge,
                             const net::Packet& packet) {
  const FlowContext* context = directory_->flowContext(packet.flow);
  if (context == nullptr) return;

  if (!core_.admit(arrivalEdge, packet, *this)) {
    if (duplicatesCounter_ != nullptr) duplicatesCounter_->inc();
    return;
  }
  if (id_ == context->flow.destination) {
    directory_->onDelivered(packet.flow, packet);
    // A destination can still have member out-edges (e.g. flooding); fall
    // through so the dissemination semantics stay uniform.
  }
  forward(*context, packet, arrivalEdge);
}

void OverlayNode::forward(const FlowContext& context,
                          const net::Packet& packet,
                          graph::EdgeId arrivalEdge) {
  // Member out-edges come either from the stamped mask (distributed
  // mode) or from the locally known active graph (centralized mode).
  const bool stamped = packet.graphMask != 0;
  if (!stamped && context.activeGraph == nullptr) return;
  const auto outEdges = stamped ? network_->overlay().outEdges(id_)
                                : context.activeGraph->outEdges(id_);
  if (!core_.forward(packet, arrivalEdge, network_->simulator().now(),
                     context.deadline, outEdges, *this) &&
      expiredCounter_ != nullptr) {
    expiredCounter_->inc();
  }
}

// dgcheck: cold: simulator sink; every simulated transmission schedules a delivery event by design, and the live driver is the measured forwarding path
void OverlayNode::send(graph::EdgeId edge, net::Packet&& packet) {
  if (telemetry_ != nullptr && packet.type == net::Packet::Type::Nack) {
    nacksCounter_->inc();
    // Traced against the data edge the gap was seen on.
    telemetry_->trace.record(network_->simulator().now(),
                             telemetry::TraceEventKind::NackSent, packet.flow,
                             id_, *network_->overlay().reverseEdge(edge),
                             static_cast<double>(packet.nackSequences.size()));
  } else if (telemetry_ != nullptr &&
             packet.type == net::Packet::Type::Retransmission) {
    retransmissionsCounter_->inc();
    telemetry_->trace.record(network_->simulator().now(),
                             telemetry::TraceEventKind::Retransmission,
                             packet.flow, id_, edge,
                             static_cast<double>(packet.sequence));
  }
  network_->transmit(edge, std::move(packet));
}

void OverlayNode::enableLinkState(
    std::vector<trace::LinkConditions> baseline, LinkStateConfig config) {
  linkState_ = std::make_unique<LinkStateState>();
  linkState_->config = config;
  linkState_->lossView.reserve(baseline.size());
  linkState_->latencyView.reserve(baseline.size());
  for (const trace::LinkConditions& c : baseline) {
    linkState_->lossView.push_back(c.lossRate);
    linkState_->latencyView.push_back(c.latency);
  }
  linkState_->baseline = std::move(baseline);
  linkState_->probesReceived.assign(network_->overlay().edgeCount(), 0);
  linkState_->probeLatencySumUs.assign(network_->overlay().edgeCount(), 0.0);
  linkState_->newestEpochFrom.assign(network_->overlay().nodeCount(), 0);
}

void OverlayNode::handleProbe(graph::EdgeId arrivalEdge,
                              const net::Packet& packet) {
  if (!linkState_) return;
  ++linkState_->probesReceived[arrivalEdge];
  linkState_->probeLatencySumUs[arrivalEdge] += static_cast<double>(
      network_->simulator().now() - packet.hopSendTime);
}

void OverlayNode::handleLinkState(graph::EdgeId arrivalEdge,
                                  const net::Packet& packet) {
  if (!linkState_) return;
  if (packet.linkStateOrigin == id_) return;  // our own update, looped
  std::uint32_t& newest =
      linkState_->newestEpochFrom[packet.linkStateOrigin];
  if (packet.linkStateEpoch <= newest) return;  // old or duplicate
  newest = packet.linkStateEpoch;
  ++linkState_->updatesAccepted;
  if (telemetry_ != nullptr) {
    linkStateAcceptedCounter_->inc();
    telemetry_->trace.record(network_->simulator().now(),
                             telemetry::TraceEventKind::LinkStateAccepted,
                             -1, id_, arrivalEdge,
                             static_cast<double>(packet.linkStateEpoch));
  }
  for (const net::LinkStateEntry& entry : packet.linkState) {
    linkState_->lossView[entry.edge] = entry.conditions.lossRate;
    linkState_->latencyView[entry.edge] = entry.conditions.latency;
  }
  // Re-flood the first copy on every link except back where it came from.
  const graph::Graph& overlay = network_->overlay();
  const graph::NodeId arrivalNeighbor = overlay.edge(arrivalEdge).from;
  for (const graph::EdgeId out : overlay.outEdges(id_)) {
    if (overlay.edge(out).to == arrivalNeighbor) continue;
    network_->transmit(out, packet);
  }
}

void OverlayNode::emitLinkState() {
  if (!linkState_ || crashed_) return;
  LinkStateState& state = *linkState_;
  ++state.epoch;
  if (telemetry_ != nullptr) {
    linkStateFloodsCounter_->inc();
    telemetry_->trace.record(network_->simulator().now(),
                             telemetry::TraceEventKind::LinkStateFlood,
                             -1, id_, -1, static_cast<double>(state.epoch));
  }

  net::Packet update;
  update.type = net::Packet::Type::LinkState;
  update.linkStateOrigin = id_;
  update.linkStateEpoch = state.epoch;
  update.originTime = network_->simulator().now();

  const graph::Graph& overlay = network_->overlay();
  const double expected =
      static_cast<double>(state.config.expectedProbesPerInterval);
  for (const graph::EdgeId in : overlay.inEdges(id_)) {
    net::LinkStateEntry entry;
    entry.edge = in;
    if (state.config.expectedProbesPerInterval >= state.config.minSamples) {
      const double received =
          static_cast<double>(state.probesReceived[in]);
      entry.conditions.lossRate =
          std::clamp(1.0 - received / expected, 0.0, 1.0);
      entry.conditions.latency =
          state.probesReceived[in] > 0
              ? static_cast<util::SimTime>(state.probeLatencySumUs[in] /
                                           received)
              : state.baseline[in].latency;
    } else {
      entry.conditions = state.baseline[in];
    }
    state.probesReceived[in] = 0;
    state.probeLatencySumUs[in] = 0.0;
    // Apply to our own view immediately.
    state.lossView[in] = entry.conditions.lossRate;
    state.latencyView[in] = entry.conditions.latency;
    update.linkState.push_back(entry);
  }

  for (const graph::EdgeId out : overlay.outEdges(id_)) {
    network_->transmit(out, update);
  }
}

routing::NetworkView OverlayNode::view() const {
  return routing::NetworkView(linkState_->lossView, linkState_->latencyView);
}

}  // namespace dg::core
