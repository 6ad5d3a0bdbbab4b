// Daemon telemetry export: every node counter is published under a
// dg_live_* name.
#include "live/daemon.hpp"

#include <gtest/gtest.h>

namespace dg {
namespace {

TEST(Daemon, ExportsMisroutedDrops) {
  graph::Graph g;
  g.addNodes(2);
  g.addBidirectional(0, 1, util::milliseconds(10));
  live::EventLoop loop;
  live::DaemonConfig config;
  config.node = 1;
  live::Daemon daemon(loop, g, config);
  daemon.start();

  // Edge 1 runs B -> A, so it cannot deliver to node 1.
  live::Message misrouted;
  misrouted.type = live::MessageType::Data;
  misrouted.sender = 0;
  misrouted.edge = 1;
  misrouted.flow = 3;
  live::UdpSocket peer(0);
  ASSERT_TRUE(peer.sendTo(daemon.port(), live::encodeMessage(misrouted)));
  for (int i = 0; i < 200 && daemon.node().misroutedDropped() == 0; ++i) {
    loop.runUntil(loop.now() + util::milliseconds(5));
  }
  daemon.stop();
  ASSERT_EQ(daemon.node().misroutedDropped(), 1u);

  telemetry::Telemetry telemetry;
  daemon.exportTelemetry(telemetry);
  EXPECT_EQ(telemetry.metrics.counterValue("dg_live_misrouted_dropped_total",
                                           {{"node", "1"}}),
            1u);
}

}  // namespace
}  // namespace dg
