// The forwarding protocol every overlay node runs, written once and
// sans-IO: packets and the current time go in, sends come out through a
// sink. core::OverlayNode drives it inside the event simulator and
// live::LiveNode inside the UDP daemon, so the live-vs-model differential
// compares one protocol, not two copies of it.
//
// Forwarding rule (the dissemination-graph semantics): the first copy of
// a packet a node receives is forwarded on every member out-edge of the
// flow's graph, except back to the node it arrived from; later copies
// are dropped. A packet whose age has reached the flow deadline is not
// forwarded (it can no longer be useful, only costly).
//
// Recovery rule: data packets carry per-(link, flow) sequence numbers; a
// receiver that observes a gap immediately NACKs the missing sequences
// on the reverse link, and the sender retransmits from the last
// kRetransmitRingPackets packets it sent on that link. A gap is NACKed
// once: the expected sequence moves past it. A driver may cap a NACK's
// length (the live wire does); a capped NACK lists the newest missing
// sequences, the only ones the sender can still hold.
#pragma once

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "core/sequence_window.hpp"
#include "net/packet.hpp"

namespace dg::core {

struct ForwardingConfig {
  bool recoveryEnabled = true;
};

/// Retransmission depth per (out-edge, flow), in packets.
inline constexpr std::size_t kRetransmitRingPackets = 64;
/// NACK length cap meaning "no cap" (the simulator's).
inline constexpr std::size_t kUncappedNack =
    std::numeric_limits<std::size_t>::max();

/// `Packet` is net::Packet or live::Message: a scoped-enum `type` with
/// Data / Retransmission / Nack, plus `flow`, `sequence`, `originTime`,
/// `graphMask` and `nackSequences`. Every call that can send takes the
/// driver's `Sink`, which performs the sends: `sink.send(edge, Packet&&)`;
/// the packet's type tells a forwarded copy (Data), a gap request (Nack)
/// and a recovery copy (Retransmission) apart.
template <typename Packet, typename Sink>
class ForwardingCore {
  using Type = decltype(Packet::type);

 public:
  ForwardingCore(const graph::Graph& overlay, ForwardingConfig config,
                 std::size_t nackCap = kUncappedNack)
      : overlay_(&overlay), config_(config), nackCap_(nackCap) {}

  /// Marks a packet this node originates as seen, so echoes are dropped.
  void originated(const Packet& p) { seen_[p.flow].insert(p.sequence); }

  /// A Data/Retransmission copy arriving on `arrivalEdge`. Gap detection
  /// runs for every Data copy, duplicates included (link sequencing is a
  /// property of the link, not of the flood); then first-copy
  /// suppression. Returns true for the first copy; false for a duplicate.
  // dgcheck: hot
  bool admit(graph::EdgeId arrivalEdge, const Packet& packet, Sink& sink) {
    if (packet.type == Type::Data && config_.recoveryEnabled) {
      net::SequenceNumber& expected =
          receive_[key(arrivalEdge, packet.flow)].expected;
      if (packet.sequence >= expected) {  // else a late fill, all good
        if (packet.sequence > expected) {
          requestGap(arrivalEdge, packet, packet.sequence - expected, sink);
        }
        expected = packet.sequence + 1;
      }
    }
    if (!seen_[packet.flow].insert(packet.sequence)) {
      ++duplicatesDropped_;
      return false;
    }
    if (packet.type == Type::Retransmission) ++nackRecoveries_;
    return true;
  }

  /// Fans a first copy out on `outEdges` -- only on the members of its
  /// graph mask when the packet is stamped -- never back to the arrival
  /// neighbour. Returns false when the packet had expired and was dropped
  /// instead.
  // dgcheck: hot
  bool forward(const Packet& packet, graph::EdgeId arrivalEdge,
               util::SimTime now, util::SimTime deadline,
               std::span<const graph::EdgeId> outEdges, Sink& sink) {
    if (now - packet.originTime >= deadline) {
      ++expiredDropped_;
      return false;
    }
    const graph::NodeId arrivalNeighbor =
        arrivalEdge == graph::kInvalidEdge ? graph::kInvalidNode
                                           : overlay_->edge(arrivalEdge).from;
    const bool stamped = packet.graphMask != 0;
    for (const graph::EdgeId out : outEdges) {
      if (stamped && (packet.graphMask & (std::uint64_t{1} << out)) == 0)
        continue;
      if (overlay_->edge(out).to == arrivalNeighbor) continue;  // no echo
      Packet copy = packet;
      copy.type = Type::Data;
      copy.nackSequences.clear();
      if (config_.recoveryEnabled) bufferForRetransmit(out, copy);
      sink.send(out, std::move(copy));
    }
    return true;
  }

  /// A NACK arriving on `arrivalEdge`, the reverse of the data edge we
  /// sent on: retransmits every requested sequence still buffered.
  void handleNack(graph::EdgeId arrivalEdge, const Packet& nack, Sink& sink) {
    const auto dataEdge = overlay_->reverseEdge(arrivalEdge);
    if (!dataEdge) return;
    const auto it = sendBuffers_.find(key(*dataEdge, nack.flow));
    if (it == sendBuffers_.end()) return;
    // Linear scan: the buffer is small and recovered packets re-enter it
    // out of sequence order, so it is not sorted.
    const std::deque<Packet>& buffer = it->second.packets;
    for (const net::SequenceNumber seq : nack.nackSequences) {
      const auto found = std::ranges::find(buffer, seq, &Packet::sequence);
      if (found == buffer.end()) continue;
      Packet retransmission = *found;
      retransmission.type = Type::Retransmission;
      ++retransmissionsSent_;
      sink.send(*dataEdge, std::move(retransmission));
    }
  }

  /// Process restart: all soft state is gone; the counters survive.
  void reset() {
    seen_.clear();
    receive_.clear();
    sendBuffers_.clear();
  }

  std::uint64_t duplicatesDropped() const { return duplicatesDropped_; }
  std::uint64_t expiredDropped() const { return expiredDropped_; }
  std::uint64_t nacksSent() const { return nacksSent_; }
  std::uint64_t retransmissionsSent() const { return retransmissionsSent_; }
  /// Retransmissions that arrived as the first (useful) copy.
  std::uint64_t nackRecoveries() const { return nackRecoveries_; }

 private:
  struct ReceiveState {
    net::SequenceNumber expected = 0;  ///< next in-order sequence
  };
  struct SendBuffer {
    std::deque<Packet> packets;  ///< newest last
  };
  /// Key for per-(edge, flow) maps.
  static std::uint64_t key(graph::EdgeId edge, net::FlowId flow) {
    return (static_cast<std::uint64_t>(edge) << 32) | flow;
  }

  /// NACKs the newest min(gap, nackCap) sequences before `packet`.
  // dgcheck: cold: runs once per loss burst, not per packet
  void requestGap(graph::EdgeId arrivalEdge, const Packet& packet,
                  std::uint64_t gap, Sink& sink) {
    const std::uint64_t missing = std::min<std::uint64_t>(gap, nackCap_);
    const auto reverse = overlay_->reverseEdge(arrivalEdge);
    if (!reverse) return;  // no reverse link: recovery impossible
    Packet nack;
    nack.type = Type::Nack;
    nack.flow = packet.flow;
    nack.sequence = packet.sequence;
    nack.originTime = packet.originTime;
    nack.nackSequences.resize(missing);
    std::iota(nack.nackSequences.begin(), nack.nackSequences.end(),
              packet.sequence - missing);
    ++nacksSent_;
    sink.send(*reverse, std::move(nack));
  }

  void bufferForRetransmit(graph::EdgeId out, const Packet& copy) {
    std::deque<Packet>& buffer = sendBuffers_[key(out, copy.flow)].packets;
    buffer.push_back(copy);  // dgcheck: ok(R5): retransmit ring reuses deque capacity; bounded by kRetransmitRingPackets and amortized to zero
    if (buffer.size() > kRetransmitRingPackets) buffer.pop_front();
  }

  const graph::Graph* overlay_;
  ForwardingConfig config_;
  std::size_t nackCap_;

  /// First-copy suppression per flow (bounded sliding window).
  std::unordered_map<net::FlowId, SequenceWindow> seen_;
  /// Per (in-edge, flow) gap detection state.
  std::unordered_map<std::uint64_t, ReceiveState> receive_;
  /// Per (out-edge, flow) retransmission buffers.
  std::unordered_map<std::uint64_t, SendBuffer> sendBuffers_;

  std::uint64_t duplicatesDropped_ = 0;
  std::uint64_t expiredDropped_ = 0;
  std::uint64_t nacksSent_ = 0;
  std::uint64_t retransmissionsSent_ = 0;
  std::uint64_t nackRecoveries_ = 0;
};

}  // namespace dg::core
