#include "live/fleet.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <system_error>

#include "net/packet.hpp"
#include "playback/playback.hpp"
#include "routing/network_view.hpp"
#include "trace/trace.hpp"

namespace dg::live {
namespace {

/// Drives the soak protocol from a coordinator socket on `loop`. Works
/// identically whether the daemons share the loop (in-process) or are
/// child processes: everything goes over UDP.
class FleetCoordinator {
 public:
  FleetCoordinator(EventLoop& loop, const FleetParams& params)
      : loop_(&loop), socket_(0), params_(&params) {}

  /// The coordinator's own port (bound at construction, so daemons can
  /// be configured with it before run()).
  std::uint16_t port() const { return socket_.localPort(); }

  /// Must be called before run(), once the daemons' ports are known.
  void setDaemonPorts(std::vector<std::uint16_t> ports) {
    daemonPorts_ = std::move(ports);
  }

  /// Runs the whole protocol; returns when the soak finished or a phase
  /// timed out. After it returns, converged()/completed()/replies() hold
  /// the outcome.
  void run() {
    loop_->addFd(socket_.fd(), [this] { onReadable(); });
    convergeDeadline_ = loop_->now() + params_->convergeTimeout;
    pollConverge();
    loop_->run();
    loop_->removeFd(socket_.fd());
  }

  bool converged() const { return converged_; }
  bool completed() const { return completed_; }
  const std::map<graph::NodeId, Message>& replies() const {
    return finalReplies_;
  }

 private:
  static constexpr std::uint32_t kConvergeToken = 1;
  static constexpr std::uint32_t kFinalToken = 2;

  void broadcast(const Message& message) {
    const std::vector<std::byte> bytes = encodeMessage(message);
    for (const std::uint16_t port : daemonPorts_) {
      socket_.sendTo(port, bytes);
    }
  }

  void requestStats(std::uint32_t token) {
    Message request;
    request.type = MessageType::StatsRequest;
    request.sender = graph::kInvalidNode;
    request.token = token;
    broadcast(request);
  }

  void pollConverge() {
    if (goSent_) return;
    if (loop_->now() >= convergeDeadline_) {
      finish();  // convergence timeout: converged_ stays false
      return;
    }
    requestStats(kConvergeToken);
    loop_->scheduleAfter(params_->statsPollInterval,
                         [this] { pollConverge(); });
  }

  void sendGo() {
    goSent_ = true;
    Message go;
    go.type = MessageType::Go;
    go.sender = graph::kInvalidNode;
    go.horizon = params_->schedule.horizon();
    broadcast(go);
    broadcast(go);  // once more for safety; daemons ignore the duplicate
    loop_->scheduleAfter(params_->schedule.horizon() + params_->drain,
                         [this] {
                           collectDeadline_ =
                               loop_->now() + params_->collectTimeout;
                           pollFinal();
                         });
  }

  void pollFinal() {
    if (completed_) return;
    if (loop_->now() >= collectDeadline_) {
      finish();  // collection timeout: completed_ stays false
      return;
    }
    requestStats(kFinalToken);
    loop_->scheduleAfter(params_->statsPollInterval, [this] { pollFinal(); });
  }

  void finish() {
    Message shutdown;
    shutdown.type = MessageType::Shutdown;
    shutdown.sender = graph::kInvalidNode;
    broadcast(shutdown);
    loop_->stop();
  }

  void onReadable() {
    socket_.drain([this](std::span<const std::byte> datagram) {
      const auto message = decodeMessage(datagram);
      if (!message || message->type != MessageType::StatsReply) return;
      handleReply(*message);
    });
  }

  void handleReply(const Message& reply) {
    const std::size_t fleetSize = daemonPorts_.size();
    if (reply.token == kConvergeToken && !goSent_) {
      if (reply.counters.membershipAlive + 1 >= fleetSize) {
        convergedNodes_.insert(reply.sender);
      }
      if (convergedNodes_.size() == fleetSize) {
        converged_ = true;
        sendGo();
      }
      return;
    }
    if (reply.token == kFinalToken && !completed_) {
      finalReplies_[reply.sender] = reply;
      if (finalReplies_.size() == fleetSize) {
        completed_ = true;
        finish();
      }
    }
  }

  EventLoop* loop_;
  UdpSocket socket_;
  std::vector<std::uint16_t> daemonPorts_;
  const FleetParams* params_;

  util::SimTime convergeDeadline_ = 0;
  util::SimTime collectDeadline_ = 0;
  bool goSent_ = false;
  bool converged_ = false;
  bool completed_ = false;
  std::set<graph::NodeId> convergedNodes_;
  std::map<graph::NodeId, Message> finalReplies_;
};

/// Folds the per-daemon StatsReply messages and the playback prediction
/// into the differential result.
FleetResult assembleResult(const FleetParams& params,
                           const FleetCoordinator& coordinator) {
  FleetResult result;
  result.converged = coordinator.converged();
  result.completed = coordinator.completed();

  std::map<net::FlowId, FlowStatsEntry> totals;
  for (const auto& [node, reply] : coordinator.replies()) {
    result.nodeCounters[node] = reply.counters;
    for (const FlowStatsEntry& entry : reply.flowStats) {
      FlowStatsEntry& total = totals[entry.flow];
      total.flow = entry.flow;
      total.sent += entry.sent;
      total.deliveredOnTime += entry.deliveredOnTime;
      total.deliveredLate += entry.deliveredLate;
      total.transmissions += entry.transmissions;
      total.latencySumUs += entry.latencySumUs;
    }
  }

  // Predicted side: the schedule compiled to a trace and replayed by the
  // playback model -- exactly the simulator differential's model half.
  const trace::Trace compiled = chaos::compileToTrace(
      params.schedule, params.topology, params.residualLoss);
  playback::PlaybackParams pb;
  pb.delivery.deadline = params.schemeParams.deadline;
  pb.delivery.packetInterval = params.packetInterval;
  pb.delivery.recoveryEnabled = params.recoveryEnabled;
  pb.mcSamples = params.mcSamples;
  pb.seed = params.playbackSeed;
  const playback::PlaybackEngine engine(params.topology.graph(), compiled,
                                        pb);

  result.flows.reserve(params.flows.size());
  for (std::size_t i = 0; i < params.flows.size(); ++i) {
    const FleetFlowSpec& spec = params.flows[i];
    const auto id = static_cast<net::FlowId>(i);
    const routing::Flow flow{params.topology.at(spec.source),
                             params.topology.at(spec.destination)};
    const playback::FlowSchemeResult predicted =
        engine.runRange(flow, spec.scheme, params.schemeParams, 0,
                        params.schedule.intervalCount());

    FleetFlowResult entry;
    entry.spec = spec;
    entry.id = id;
    entry.predictedUnavailability = predicted.unavailability;
    entry.predictedCost = predicted.averageCost;
    const auto it = totals.find(id);
    if (it != totals.end()) {
      const FlowStatsEntry& total = it->second;
      entry.sent = total.sent;
      entry.deliveredOnTime = total.deliveredOnTime;
      entry.deliveredLate = total.deliveredLate;
      entry.transmissions = total.transmissions;
      entry.liveUnavailability =
          total.sent == 0
              ? 1.0
              : 1.0 - static_cast<double>(total.deliveredOnTime) /
                          static_cast<double>(total.sent);
      entry.liveCost = total.sent == 0
                           ? 0.0
                           : static_cast<double>(total.transmissions) /
                                 static_cast<double>(total.sent);
    } else {
      entry.liveUnavailability = 1.0;
    }
    result.flows.push_back(std::move(entry));
  }
  return result;
}

LiveFlow makeLiveFlow(const FleetParams& params, std::size_t index) {
  const FleetFlowSpec& spec = params.flows[index];
  LiveFlow flow;
  flow.id = static_cast<net::FlowId>(index);
  flow.source = params.topology.at(spec.source);
  flow.destination = params.topology.at(spec.destination);
  flow.deadline = params.schemeParams.deadline;
  flow.graphMask =
      selectLiveGraphMask(params.topology, spec.scheme, flow.source,
                          flow.destination, params.schemeParams,
                          params.residualLoss);
  return flow;
}

std::string writeScratchFile(const std::string& workDir,
                             const std::string& name,
                             const std::string& contents) {
  const std::string path = workDir + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("fleet: cannot write " + path);
  out << contents;
  out.close();
  if (!out) throw std::runtime_error("fleet: cannot write " + path);
  return path;
}

}  // namespace

std::uint64_t selectLiveGraphMask(const trace::Topology& topology,
                                  routing::SchemeKind scheme,
                                  graph::NodeId source,
                                  graph::NodeId destination,
                                  const routing::SchemeParams& schemeParams,
                                  double residualLoss) {
  switch (scheme) {
    case routing::SchemeKind::StaticSinglePath:
    case routing::SchemeKind::StaticTwoDisjoint:
    case routing::SchemeKind::TimeConstrainedFlooding:
      break;
    default:
      throw std::invalid_argument(
          std::string("live flows require a static scheme; '") +
          std::string(routing::schemeName(scheme)) +
          "' needs live monitoring, which the daemon does not run yet");
  }
  const graph::Graph& overlay = topology.graph();
  const std::vector<trace::LinkConditions> healthy =
      trace::healthyBaseline(overlay, residualLoss);
  std::vector<double> lossRates;
  std::vector<util::SimTime> latencies;
  lossRates.reserve(healthy.size());
  latencies.reserve(healthy.size());
  for (const trace::LinkConditions& c : healthy) {
    lossRates.push_back(c.lossRate);
    latencies.push_back(c.latency);
  }
  const routing::NetworkView baseline(std::move(lossRates),
                                      std::move(latencies));
  const std::unique_ptr<routing::RoutingScheme> instance = routing::makeScheme(
      scheme, overlay, routing::Flow{source, destination}, schemeParams);
  instance->initialize(baseline);
  return net::graphMaskOf(instance->select(baseline));
}

FleetResult runFleetInProcess(const FleetParams& params,
                              telemetry::Telemetry* telemetry) {
  const graph::Graph& overlay = params.topology.graph();
  const std::size_t fleetSize = params.topology.siteCount();

  EventLoop loop;
  FleetCoordinator coordinator(loop, params);

  std::vector<std::unique_ptr<Daemon>> daemons;
  std::vector<std::uint16_t> ports;
  daemons.reserve(fleetSize);
  for (std::size_t i = 0; i < fleetSize; ++i) {
    DaemonConfig config;
    config.node = static_cast<graph::NodeId>(i);
    config.port = 0;  // ephemeral
    config.coordinatorPort = coordinator.port();
    config.incarnation = 1;
    config.forwarding.recoveryEnabled = params.recoveryEnabled;
    config.membership = params.membership;
    config.packetInterval = params.packetInterval;
    auto daemon = std::make_unique<Daemon>(loop, overlay, config);
    daemon->enableImpairment(params.schedule, params.impairmentSeed,
                             params.residualLoss);
    daemon->setTelemetry(telemetry);
    // The coordinator owns the shared loop's lifetime.
    daemon->onShutdown([] {});
    ports.push_back(daemon->port());
    daemons.push_back(std::move(daemon));
  }
  for (std::size_t i = 0; i < fleetSize; ++i) {
    for (std::size_t j = 0; j < fleetSize; ++j) {
      if (i == j) continue;
      daemons[i]->seedPeer(static_cast<graph::NodeId>(j), ports[j]);
    }
  }
  for (std::size_t f = 0; f < params.flows.size(); ++f) {
    const LiveFlow flow = makeLiveFlow(params, f);
    daemons[flow.source]->addFlow(flow);
  }
  for (const auto& daemon : daemons) daemon->start();

  coordinator.setDaemonPorts(ports);
  coordinator.run();

  for (const auto& daemon : daemons) {
    daemon->stop();
    if (telemetry != nullptr) daemon->exportTelemetry(*telemetry);
  }
  return assembleResult(params, coordinator);
}

FleetResult runFleetProcesses(const FleetParams& params,
                              telemetry::Telemetry* telemetry) {
  if (params.dgnetBinary.empty())
    throw std::invalid_argument("fleet: dgnetBinary is required for "
                                "multi-process mode");
  const std::size_t fleetSize = params.topology.siteCount();
  const std::string topologyPath = writeScratchFile(
      params.workDir, "fleet-topology.txt", params.topology.toString());
  const std::string schedulePath = writeScratchFile(
      params.workDir, "fleet-schedule.txt", params.schedule.toString());

  EventLoop loop;
  FleetCoordinator coordinator(loop, params);
  {
    std::vector<std::uint16_t> ports;
    for (std::size_t i = 0; i < fleetSize; ++i)
      ports.push_back(static_cast<std::uint16_t>(params.portBase + 1 + i));
    coordinator.setDaemonPorts(std::move(ports));
  }

  // One child per site: dgnet daemon --node=i ...
  std::vector<pid_t> children;
  for (std::size_t i = 0; i < fleetSize; ++i) {
    std::vector<std::string> args = {
        params.dgnetBinary,
        "daemon",
        "--node=" + std::to_string(i),
        "--port=" + std::to_string(params.portBase + 1 + i),
        "--port-base=" + std::to_string(params.portBase),
        "--coordinator-port=" + std::to_string(coordinator.port()),
        "--topology=" + topologyPath,
        "--schedule=" + schedulePath,
        "--seed=" + std::to_string(params.impairmentSeed),
        "--residual-loss=" + std::to_string(params.residualLoss),
        "--recovery=" + std::string(params.recoveryEnabled ? "1" : "0"),
        "--packet-interval-us=" + std::to_string(params.packetInterval),
        "--heartbeat-us=" +
            std::to_string(params.membership.heartbeatInterval),
        "--deadline-us=" + std::to_string(params.schemeParams.deadline),
    };
    // One joined argument: util::Config keeps a single value per key, so
    // repeated --flow= flags would collapse to the last one.
    std::string flowsArg;
    for (std::size_t f = 0; f < params.flows.size(); ++f) {
      const FleetFlowSpec& spec = params.flows[f];
      if (params.topology.at(spec.source) != static_cast<graph::NodeId>(i))
        continue;
      if (!flowsArg.empty()) flowsArg += ',';
      flowsArg += std::to_string(f) + ":" + spec.source + ":" +
                  spec.destination + ":" +
                  std::string(routing::schemeName(spec.scheme));
    }
    if (!flowsArg.empty()) args.push_back("--flows=" + flowsArg);
    const pid_t pid = fork();
    if (pid < 0)
      throw std::system_error(errno, std::generic_category(), "fork");
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);  // exec failed
    }
    children.push_back(pid);
  }

  FleetResult result;
  try {
    coordinator.run();
    result = assembleResult(params, coordinator);
  } catch (...) {
    for (const pid_t pid : children) kill(pid, SIGKILL);
    for (const pid_t pid : children) waitpid(pid, nullptr, 0);
    throw;
  }

  // Shutdown was broadcast by the coordinator; reap, escalating to
  // SIGKILL for any child that ignores it.
  for (const pid_t pid : children) {
    int status = 0;
    for (int attempt = 0;; ++attempt) {
      const pid_t done = waitpid(pid, &status, WNOHANG);
      if (done == pid || done < 0) break;
      if (attempt >= 200) {  // ~2 s of patience
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        break;
      }
      usleep(10000);
    }
  }
  (void)telemetry;  // child-process counters arrive via StatsReply only
  return result;
}

}  // namespace dg::live
