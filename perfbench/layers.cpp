// Layer probes (see layers.hpp).
#include "layers.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>

#include "chaos/bridge.hpp"
#include "chaos/schedule.hpp"
#include "live/event_loop.hpp"
#include "live/live_node.hpp"
#include "live/wire.hpp"
#include "mcast/playback.hpp"
#include "mcast/scheme.hpp"
#include "net/packet.hpp"
#include "playback/delivery_model.hpp"
#include "routing/network_view.hpp"
#include "store/reader.hpp"
#include "trace/condition_timeline.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace dgl = dg::live;
using dg::routing::NetworkView;

namespace {

constexpr std::int64_t kMs = 1'000'000;

/// Repeats `pass` until at least `minPasses` ran and `budgetNs` elapsed.
template <typename Pass>
void repeatFor(std::int64_t budgetNs, int minPasses, Pass&& pass) {
  const std::int64_t start = nowNs();
  for (int done = 0; done < minPasses || nowNs() - start < budgetNs; ++done)
    pass();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void tally(Recorder* recorder, const char* name, double delta) {
  if (recorder != nullptr) recorder->count(name, delta);
}

/// Per-interval RNG seed of the shadow replays (any fixed derivation
/// does: the probes time the evaluators, they do not reproduce results).
std::uint64_t intervalSeed(std::uint64_t seed, std::size_t job,
                           std::size_t interval) {
  return seed * 0x9E3779B97F4A7C15ULL ^ (job << 40) ^ interval;
}

/// Decision view for interval t at the engine's staleness: the baseline
/// before any history exists, else the cursor positioned at t - staleness.
const NetworkView& decisionView(const NetworkView& baseline,
                                dg::trace::ConditionTimeline& cursor,
                                NetworkView& borrowed, std::size_t t,
                                int staleness) {
  const auto lag = static_cast<std::size_t>(std::max(0, staleness));
  if (t < lag) return baseline;
  cursor.seek(t - lag);
  borrowed = NetworkView::borrowing(cursor, NetworkView::kNoFingerprint);
  return borrowed;
}

}  // namespace

void probeStore(const ProbeInputs& in, RunReport& report) {
  std::vector<double> openMs;
  repeatFor(200 * kMs, 5, [&] {
    const std::int64_t start = nowNs();
    auto reader = dg::store::PackedTraceReader::open(in.packedPath);
    const std::uint64_t fingerprint = reader.contentFingerprint();
    openMs.push_back(static_cast<double>(nowNs() - start) / 1e6);
    if (fingerprint == 0) report.fail("store: zero content fingerprint");
  });
  report.add("store.open_ms", median(openMs), "ms");

  auto reader = dg::store::PackedTraceReader::open(in.packedPath);
  dg::store::PackedTraceReader::ChunkData chunk;
  double decodeNs = 0.0;
  double records = 0.0;
  repeatFor(200 * kMs, 1, [&] {
    for (std::uint64_t c = 0; c < reader.info().chunkCount; ++c) {
      const std::int64_t start = nowNs();
      reader.decodeChunk(c, chunk);
      decodeNs += static_cast<double>(nowNs() - start);
      records += static_cast<double>(chunk.records.size());
    }
  });
  tally(in.recorder, "store.records_decoded", records);
  report.add("store.decode_ns_per_record", decodeNs / std::max(records, 1.0),
             "ns");
}

void probeCursor(const ProbeInputs& in, RunReport& report) {
  auto reader = dg::store::PackedTraceReader::open(in.packedPath);
  const std::size_t n = in.trace->intervalCount();
  {
    dg::store::PackedConditionSource source(reader);
    dg::trace::ConditionTimeline packed(source);
    dg::trace::ConditionTimeline memory(*in.trace);
    dg::trace::ConditionTimeline& cursor = in.packedRunner ? packed : memory;
    double ns = 0.0;
    double seeks = 0.0;
    repeatFor(200 * kMs, 1, [&] {
      cursor.seek(0);
      const std::int64_t start = nowNs();
      for (std::size_t t = 1; t < n; ++t) cursor.seek(t);
      ns += static_cast<double>(nowNs() - start);
      seeks += static_cast<double>(n - 1);
    });
    tally(in.recorder, "trace.seeks", seeks);
    report.add("trace.seek_ns", ns / std::max(seeks, 1.0), "ns");
  }
  // Jumps: a fresh source-backed cursor per target, as a packed-runner
  // worker positions itself at the start of its chunk.
  std::vector<std::size_t> targets;
  for (std::size_t c = 1; c * in.chunkIntervals < n; ++c)
    targets.push_back(c * in.chunkIntervals);
  if (targets.empty()) targets.push_back(n / 2);
  double ns = 0.0;
  double jumps = 0.0;
  repeatFor(100 * kMs, 1, [&] {
    for (const std::size_t target : targets) {
      dg::store::PackedConditionSource source(reader);
      dg::trace::ConditionTimeline cursor(source);
      const std::int64_t start = nowNs();
      cursor.seek(target);
      ns += static_cast<double>(nowNs() - start);
      jumps += 1.0;
    }
  });
  tally(in.recorder, "trace.seek_jumps", jumps);
  report.add("trace.seek_jump_ns", ns / std::max(jumps, 1.0), "ns");
}

void probeUnicastReplay(const ProbeInputs& in, RunReport& report) {
  const dg::trace::Trace& trace = *in.trace;
  const dg::playback::PlaybackParams& pb = in.playback;
  const NetworkView baseline = NetworkView::baseline(trace);
  dg::trace::ConditionTimeline decision(trace);
  dg::trace::ConditionTimeline truth(trace);
  dg::playback::DeliveryWorkspace workspace;
  workspace.prepare(*in.overlay);
  NetworkView borrowed = baseline;

  double mcCalls = 0.0, mcNs = 0.0, draws = 0.0, deviating = 0.0;
  double nlCalls = 0.0, nlNs = 0.0;
  std::size_t job = 0;
  for (const dg::routing::SchemeKind kind : dg::routing::allSchemeKinds()) {
    double selectNs = 0.0;
    double selects = 0.0;
    for (const dg::routing::Flow& flow : in.flows) {
      auto scheme =
          dg::routing::makeScheme(kind, *in.overlay, flow, in.schemeParams);
      scheme->initialize(baseline);
      for (std::size_t t = 0; t < in.probeIntervals; ++t) {
        const NetworkView& view =
            decisionView(baseline, decision, borrowed, t, pb.viewStaleness);
        const std::int64_t s0 = nowNs();
        const dg::graph::DisseminationGraph& graph = scheme->select(view);
        selectNs += static_cast<double>(nowNs() - s0);
        selects += 1.0;

        truth.seek(t);
        const auto loss = truth.lossRates();
        const auto latency = truth.latencies();
        if (dg::playback::nearLossless(graph, loss, pb.lossEpsilon)) {
          const std::int64_t e0 = nowNs();
          const double miss = dg::playback::missProbabilityNearLossless(
              graph, loss, latency, pb.delivery, workspace);
          nlNs += static_cast<double>(nowNs() - e0);
          nlCalls += 1.0;
          if (!(miss >= 0.0 && miss <= 1.0))
            report.fail("playback: near-lossless miss out of range");
        } else {
          dg::util::Rng rng(intervalSeed(in.seed, job, t));
          const std::int64_t e0 = nowNs();
          const double onTime = dg::playback::onTimeProbabilityMC(
              graph, loss, latency, pb.delivery, pb.mcSamples, rng, workspace);
          mcNs += static_cast<double>(nowNs() - e0);
          mcCalls += 1.0;
          if (!(onTime >= 0.0 && onTime <= 1.0))
            report.fail("playback: Monte-Carlo on-time out of range");
          double lossSum = 0.0;
          for (const dg::graph::EdgeId e : graph.edges()) lossSum += loss[e];
          draws += static_cast<double>(pb.mcSamples) *
                   static_cast<double>(graph.edges().size());
          deviating += static_cast<double>(pb.mcSamples) * lossSum;
        }
      }
      ++job;
    }
    tally(in.recorder, "routing.selects", selects);
    report.add("routing.select_ns." +
                   std::string(dg::routing::schemeName(kind)),
               ratio(selectNs, selects), "ns");
  }
  tally(in.recorder, "playback.mc_calls", mcCalls);
  tally(in.recorder, "playback.mc_draws", draws);
  tally(in.recorder, "playback.nearlossless_calls", nlCalls);
  report.add("playback.mc_calls", mcCalls, "count");
  report.add("playback.mc_ns_per_call", ratio(mcNs, mcCalls), "ns");
  report.add("playback.mc_ns_per_draw", ratio(mcNs, draws), "ns");
  report.add("playback.mc_useful_draw_ratio", ratio(deviating, draws),
             "ratio");
  report.add("playback.nearlossless_ns_per_call", ratio(nlNs, nlCalls), "ns");
}

double hitRatio(const dg::routing::DecisionMemo::Stats& memo) {
  const std::uint64_t lookups = memo.decisionHits + memo.decisionMisses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(memo.decisionHits) /
                            static_cast<double>(lookups);
}

double memoLookupNs(const dg::routing::DecisionMemo& memo) {
  const dg::routing::DecisionMemo::Snapshot snapshot = memo.snapshot();
  dg::routing::DecisionMemo copy;
  copy.absorb(snapshot);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
  for (const auto& context : snapshot.contexts) {
    const std::uint64_t key =
        copy.contextKey(context.kind, context.flow, context.params);
    for (const auto& [fingerprint, edgeList] : context.decisions)
      keys.emplace_back(key, fingerprint);
  }
  if (keys.empty()) {
    // Nothing memoized (static schemes only): time the miss path.
    const std::uint64_t key = copy.contextKey(
        dg::routing::SchemeKind::DynamicSinglePath, dg::routing::Flow{0, 1},
        dg::routing::SchemeParams{});
    for (std::uint64_t fingerprint = 1; fingerprint <= 1024; ++fingerprint)
      keys.emplace_back(key, fingerprint);
  }
  double ns = 0.0;
  double lookups = 0.0;
  repeatFor(100 * kMs, 1, [&] {
    const std::int64_t start = nowNs();
    for (const auto& [key, fingerprint] : keys)
      copy.findDecision(key, fingerprint);
    ns += static_cast<double>(nowNs() - start);
    lookups += static_cast<double>(keys.size());
  });
  return ratio(ns, lookups);
}

void probeChunkWarmup(const ProbeInputs& in, RunReport& report,
                      bool includeMerge, bool includeMemo) {
  dg::playback::PlaybackParams pb = in.playback;
  pb.conditionCursor = true;
  pb.accumBlockIntervals = in.chunkIntervals;
  // One engine per side, so neither side's scoring is served by decisions
  // the other memoized.
  const dg::playback::PlaybackEngine engine(*in.overlay, *in.trace, pb);
  const dg::playback::PlaybackEngine rangeEngine(*in.overlay, *in.trace, pb);
  const std::size_t n = in.trace->intervalCount();
  const std::size_t first = ((n - 1) / in.chunkIntervals) * in.chunkIntervals;
  const std::size_t flowCount = std::min<std::size_t>(in.flows.size(), 4);

  double partialNs = 0.0;
  double rangeNs = 0.0;
  double mergeNs = 0.0;
  double merges = 0.0;
  for (std::size_t f = 0; f < flowCount; ++f) {
    for (const dg::routing::SchemeKind kind : dg::routing::allSchemeKinds()) {
      const std::int64_t p0 = nowNs();
      dg::playback::RunPartial partial = engine.runChunkPartial(
          in.flows[f], kind, in.schemeParams, first, n, nullptr, nullptr);
      const std::int64_t p1 = nowNs();
      const dg::playback::FlowSchemeResult range =
          rangeEngine.runRange(in.flows[f], kind, in.schemeParams, first, n);
      const std::int64_t p2 = nowNs();
      partialNs += static_cast<double>(p1 - p0);
      rangeNs += static_cast<double>(p2 - p1);
      if (!(range.unavailability >= 0.0 && range.unavailability <= 1.0))
        report.fail("playback: runRange unavailability out of range");
      if (includeMerge) {
        dg::playback::RunPartial total = partial;
        dg::playback::RunPartial later = partial;
        const std::int64_t m0 = nowNs();
        total.merge(std::move(later));
        mergeNs += static_cast<double>(nowNs() - m0);
        merges += 1.0;
      }
    }
  }
  report.add("playback.warmup_share", ratio(partialNs - rangeNs, partialNs),
             "ratio");
  if (includeMerge) report.add("playback.merge_ns", ratio(mergeNs, merges), "ns");
  if (includeMemo) {
    report.add("routing.memo_hit_ratio", hitRatio(engine.decisionMemo().stats()),
               "ratio");
    report.add("routing.memo_lookup_ns", memoLookupNs(engine.decisionMemo()),
               "ns");
  }
}

void probeStageShare(const ProbeInputs& in, RunReport& report) {
  dg::playback::PlaybackParams pb = in.playback;
  pb.collectStageTimings = true;
  const dg::playback::PlaybackEngine engine(*in.overlay, *in.trace, pb);
  const std::int64_t start = nowNs();
  for (const dg::routing::Flow& flow : in.flows) {
    for (const dg::routing::SchemeKind kind : dg::routing::allSchemeKinds())
      engine.runRange(flow, kind, in.schemeParams, 0, in.probeIntervals);
  }
  const double wall = static_cast<double>(nowNs() - start);
  report.add("playback.stage_mc_share",
             ratio(static_cast<double>(engine.stageTimings().mcNs.load()), wall),
             "ratio");
}

void probeGroupReplay(const ProbeInputs& in, RunReport& report,
                      bool jobTimes) {
  const dg::trace::Trace& trace = *in.trace;
  const dg::playback::PlaybackParams& pb = in.playback;
  const NetworkView baseline = NetworkView::baseline(trace);
  dg::trace::ConditionTimeline decision(trace);
  dg::trace::ConditionTimeline truth(trace);
  dg::playback::DeliveryWorkspace workspace;
  workspace.prepare(*in.overlay);
  NetworkView borrowed = baseline;

  double mcCalls = 0.0, mcNs = 0.0, mcReceivers = 0.0;
  double nlNs = 0.0, nlReceivers = 0.0;
  std::size_t job = 0;
  for (const dg::mcast::Group& group : in.groups) {
    const std::size_t r = group.receivers.size();
    std::vector<dg::util::SimTime> deadlines(r);
    for (std::size_t i = 0; i < r; ++i)
      deadlines[i] = dg::mcast::receiverDeadline(group, i, pb.delivery.deadline);
    std::vector<double> miss(r);
    std::vector<dg::util::SimTime> arrival(r);
    std::vector<int> onTime(r);
    std::vector<int> histogram(r + 1);
    for (const dg::mcast::GroupSchemeKind kind :
         dg::mcast::allGroupSchemeKinds()) {
      auto scheme = dg::mcast::makeGroupScheme(kind, *in.overlay, group,
                                               in.schemeParams);
      scheme->initialize(baseline);
      for (std::size_t t = 0; t < in.probeIntervals; ++t) {
        const dg::graph::DisseminationGraph& graph = scheme->select(
            decisionView(baseline, decision, borrowed, t, pb.viewStaleness));
        truth.seek(t);
        const auto loss = truth.lossRates();
        const auto latency = truth.latencies();
        if (dg::playback::nearLossless(graph, loss, pb.lossEpsilon)) {
          const std::int64_t e0 = nowNs();
          dg::playback::missGroupNearLossless(graph, group.receivers,
                                              deadlines, loss, latency,
                                              pb.delivery, workspace, miss,
                                              arrival);
          nlNs += static_cast<double>(nowNs() - e0);
          nlReceivers += static_cast<double>(r);
        } else {
          dg::util::Rng rng(intervalSeed(in.seed, job, t));
          const std::int64_t e0 = nowNs();
          dg::playback::onTimeCountsMCGroup(
              graph, group.receivers, deadlines, loss, latency, pb.delivery,
              pb.mcSamples, rng, workspace, onTime, histogram);
          mcNs += static_cast<double>(nowNs() - e0);
          mcCalls += 1.0;
          mcReceivers += static_cast<double>(r);
          int samples = 0;
          for (const int count : histogram) samples += count;
          if (samples != pb.mcSamples)
            report.fail("mcast: delivered histogram does not sum to samples");
        }
      }
      ++job;
    }
  }
  tally(in.recorder, "mcast.mc_calls", mcCalls);
  tally(in.recorder, "mcast.nearlossless_receivers", nlReceivers);
  report.add("mcast.mc_calls", mcCalls, "count");
  report.add("mcast.mc_ns_per_receiver", ratio(mcNs, mcReceivers), "ns");
  report.add("mcast.nearlossless_ns_per_receiver", ratio(nlNs, nlReceivers),
             "ns");

  if (!jobTimes) return;
  dg::mcast::GroupPlaybackParams gp;
  gp.base = pb;
  const dg::mcast::GroupPlaybackEngine engine(*in.overlay, trace, gp);
  std::vector<double> jobs;
  for (const dg::mcast::Group& group : in.groups) {
    for (const dg::mcast::GroupSchemeKind kind :
         dg::mcast::allGroupSchemeKinds()) {
      const std::int64_t start = nowNs();
      engine.runRange(group, kind, in.schemeParams, 0, in.probeIntervals);
      jobs.push_back(static_cast<double>(nowNs() - start) / 1e9);
    }
  }
  report.add("mcast.job_s_p50", median(jobs), "s");
}

namespace {

/// Counts the messages a LiveNode hands to the network.
class CountingSender final : public dgl::LiveNodeSender {
 public:
  void sendOnEdge(dg::graph::EdgeId, const dgl::Message&) override { ++sends; }
  std::uint64_t sends = 0;
};

}  // namespace

void probeLiveCalls(std::uint64_t seed, RunReport& report, Recorder* recorder) {
  const dg::trace::Topology topology = dg::trace::Topology::mesh5();
  const dg::graph::Graph& overlay = topology.graph();
  const dg::graph::NodeId source = topology.at("NYC");
  const dg::graph::NodeId relay = topology.at("CHI");
  const dg::graph::NodeId destination = topology.at("SJC");
  dg::graph::EdgeId arrival = dg::graph::kInvalidEdge;
  for (const dg::graph::EdgeId e : overlay.outEdges(source)) {
    if (overlay.edge(e).to == relay) arrival = e;
  }
  std::uint64_t floodMask = 0;
  for (std::size_t e = 0; e < overlay.edgeCount(); ++e)
    floodMask |= std::uint64_t{1} << e;

  dgl::Message data;
  data.type = dgl::MessageType::Data;
  data.sender = source;
  data.edge = arrival;
  data.flow = static_cast<dg::net::FlowId>(seed % 1000 + 1);
  data.deadline = dg::util::milliseconds(65);
  data.graphMask = floodMask;
  data.source = source;
  data.destination = destination;

  constexpr int kMessages = 20000;
  double encodeNs = 0.0, decodeNs = 0.0, calls = 0.0;
  std::size_t bytes = 0;
  repeatFor(100 * kMs, 1, [&] {
    std::vector<std::vector<std::byte>> encoded(kMessages);
    const std::int64_t e0 = nowNs();
    for (int i = 0; i < kMessages; ++i) {
      data.sequence = static_cast<dg::net::SequenceNumber>(i);
      encoded[static_cast<std::size_t>(i)] = dgl::encodeMessage(data);
    }
    const std::int64_t e1 = nowNs();
    for (const auto& datagram : encoded) {
      const auto decoded = dgl::decodeMessage(datagram);
      if (!decoded || decoded->graphMask != floodMask) {
        report.fail("live: wire round trip lost the message");
        return;
      }
      bytes += datagram.size();
    }
    const std::int64_t e2 = nowNs();
    encodeNs += static_cast<double>(e1 - e0);
    decodeNs += static_cast<double>(e2 - e1);
    calls += kMessages;
  });
  tally(recorder, "live.messages_encoded", calls);
  tally(recorder, "live.messages_decoded", calls);
  report.add("live.encode_ns", ratio(encodeNs, calls), "ns");
  report.add("live.decode_ns", ratio(decodeNs, calls), "ns");

  // Forwarding: a relay receives fresh data packets of a flooded flow and
  // forwards each on its out-edges (minus the arrival edge).
  CountingSender sender;
  dgl::LiveNodeConfig config;
  config.recoveryEnabled = false;
  dgl::LiveNode node(relay, overlay, sender, config);
  double forwardNs = 0.0;
  double handled = 0.0;
  dg::net::SequenceNumber sequence = 0;
  repeatFor(100 * kMs, 1, [&] {
    const std::int64_t start = nowNs();
    for (int i = 0; i < kMessages; ++i) {
      data.sequence = sequence++;
      node.handleMessage(data, dg::util::milliseconds(1));
    }
    forwardNs += static_cast<double>(nowNs() - start);
    handled += kMessages;
  });
  if (sender.sends == 0) report.fail("live: relay forwarded nothing");
  tally(recorder, "live.messages_handled", handled);
  tally(recorder, "live.sends", static_cast<double>(sender.sends));
  report.add("live.forward_ns", ratio(forwardNs, handled), "ns");

  // Timer lateness: a chain of timers at seeded delays, each measuring
  // how late scheduleAfter delivered it.
  dgl::EventLoop loop;
  dg::util::Rng rng(seed);
  std::vector<double> lagUs;
  constexpr int kTimers = 1000;
  std::function<void()> arm = [&] {
    const dg::util::SimTime delay =
        100 + static_cast<dg::util::SimTime>(rng.uniformInt(800));
    const dg::util::SimTime due = loop.now() + delay;
    loop.scheduleAfter(delay, [&, due] {
      lagUs.push_back(static_cast<double>(loop.now() - due));
      if (lagUs.size() < kTimers) {
        arm();
      } else {
        loop.stop();
      }
    });
  };
  arm();
  loop.runUntil(loop.now() + dg::util::seconds(5));
  if (lagUs.size() < kTimers) report.fail("live: event loop dropped timers");
  tally(recorder, "live.timers", static_cast<double>(lagUs.size()));
  report.add("live.timer_lag_us_p50", percentile(lagUs, 0.5), "us");
  report.add("live.timer_lag_us_p99", percentile(lagUs, 0.99), "us");
}

std::uint64_t fleetDatagrams(const dgl::FleetResult& result) {
  std::uint64_t datagrams = 0;
  for (const auto& [node, counters] : result.nodeCounters)
    datagrams += counters.socketSends + counters.impairmentDrops;
  return datagrams;
}

FleetPrediction replayFleetPrediction(const dgl::FleetParams& params,
                                      Recorder* recorder, int parent) {
  FleetPrediction out;
  const std::uint64_t allocs0 = allocationCount();
  const std::int64_t start = nowNs();
  const dg::trace::Trace compiled = [&] {
    Span span(recorder, "chaos.compileToTrace", parent);
    return dg::chaos::compileToTrace(params.schedule, params.topology,
                                     params.residualLoss);
  }();
  dg::playback::PlaybackParams pb;
  pb.delivery.deadline = params.schemeParams.deadline;
  pb.delivery.packetInterval = params.packetInterval;
  pb.delivery.recoveryEnabled = params.recoveryEnabled;
  pb.mcSamples = params.mcSamples;
  pb.seed = params.playbackSeed;
  pb.collectStageTimings = true;
  const dg::playback::PlaybackEngine engine(params.topology.graph(), compiled,
                                            pb);
  const std::size_t intervals = params.schedule.intervalCount();
  for (std::size_t i = 0; i < params.flows.size(); ++i) {
    const dgl::FleetFlowSpec& spec = params.flows[i];
    const dg::routing::Flow flow{params.topology.at(spec.source),
                                 params.topology.at(spec.destination)};
    Span job(recorder, "playback.runRange", parent,
             static_cast<std::int64_t>(i));
    const std::int64_t j0 = nowNs();
    engine.runRange(flow, spec.scheme, params.schemeParams, 0, intervals);
    out.jobSeconds.push_back(static_cast<double>(nowNs() - j0) / 1e9);
  }
  out.seconds = static_cast<double>(nowNs() - start) / 1e9;
  out.allocations = allocationCount() - allocs0;
  out.intervals = intervals * params.flows.size();
  out.mcSeconds =
      static_cast<double>(engine.stageTimings().mcNs.load()) / 1e9;
  return out;
}

void reportFleetLayers(const dgl::FleetResult& result, double fleetSeconds,
                       const FleetPrediction& prediction, RunReport& report,
                       Recorder* recorder) {
  // In-process fleets share one event loop, so every node snapshot reports
  // that loop's counters; the latest snapshot is the maximum.
  std::uint64_t wakeups = 0;
  std::uint64_t timers = 0;
  for (const auto& [node, counters] : result.nodeCounters) {
    wakeups = std::max(wakeups, counters.eventLoopWakeups);
    timers = std::max(timers, counters.timersFired);
  }
  const double datagrams = static_cast<double>(fleetDatagrams(result));
  tally(recorder, "live.datagrams", datagrams);
  tally(recorder, "live.wakeups", static_cast<double>(wakeups));
  report.add("live.wakeups_per_datagram",
             ratio(static_cast<double>(wakeups), datagrams), "ratio");
  report.add("live.timers_per_datagram",
             ratio(static_cast<double>(timers), datagrams), "ratio");
  report.add("live.predict_share", ratio(prediction.seconds, fleetSeconds),
             "ratio");
}

}  // namespace perfbench

namespace perfbench {

dgl::FleetParams soakFleetParams(std::uint64_t seed, int soakSeconds,
                                 int faults, int mcSamples) {
  dgl::FleetParams params;
  params.topology = dg::trace::Topology::mesh5();
  dg::chaos::ChaosScheduleParams schedule;
  schedule.seed = kSoakScheduleSeed;
  schedule.faults = faults;
  schedule.horizon = dg::util::seconds(soakSeconds);
  schedule.intervalLength = dg::util::seconds(1);
  // Live daemons do not crash mid-soak and run no monitoring plane.
  schedule.nodeCrashWeight = 0.0;
  schedule.monitorDelayWeight = 0.0;
  params.schedule = dg::chaos::ChaosSchedule::random(params.topology, schedule);
  params.schedule.validateAgainst(params.topology.graph());
  using dg::routing::SchemeKind;
  params.flows = {{"NYC", "SJC", SchemeKind::StaticTwoDisjoint},
                  {"SJC", "NYC", SchemeKind::TimeConstrainedFlooding},
                  {"CHI", "DEN", SchemeKind::StaticTwoDisjoint},
                  {"DFW", "NYC", SchemeKind::StaticSinglePath}};
  params.packetInterval = 400;
  params.impairmentSeed = seed;
  params.playbackSeed = seed;
  params.mcSamples = mcSamples;
  return params;
}

void probeMiniFleet(std::uint64_t seed, bool small, RunReport& report,
                    Recorder* recorder) {
  const dgl::FleetParams params =
      soakFleetParams(seed, 1, 2, small ? 200 : 1000);
  const int root = recorder != nullptr ? recorder->begin("live.runFleetInProcess") : -1;
  const std::int64_t start = nowNs();
  const dgl::FleetResult result = dgl::runFleetInProcess(params);
  const double seconds = static_cast<double>(nowNs() - start) / 1e9;
  if (recorder != nullptr) recorder->end(root);
  if (!result.converged || !result.completed)
    report.fail("live: mini fleet did not converge or collect");
  const FleetPrediction prediction =
      replayFleetPrediction(params, recorder, root);
  reportFleetLayers(result, seconds, prediction, report, recorder);
}

}  // namespace perfbench
