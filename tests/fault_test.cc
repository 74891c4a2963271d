// Unit tests for the fault-injection subsystem: parameter validation,
// deterministic injector draws, crash/recovery windows, scheduled
// partitions, the Network faulty-delivery hook, and the reliable
// channel's retry, backoff and lost-ack accounting.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "fault/reliable_channel.h"
#include "net/network.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::fault {
namespace {

using db::SiteId;
using sim::Process;
using sim::Simulation;

TEST(FaultParamsTest, DefaultsValidateAndDisableEverything) {
  FaultParams p;
  std::string err;
  EXPECT_TRUE(p.Validate(&err)) << err;
  EXPECT_FALSE(p.enabled());
}

TEST(FaultParamsTest, MtbfWithoutMttrIsRejected) {
  FaultParams p;
  p.site_mtbf = 5.0;
  p.site_mttr = 0;  // the rotation would draw recovery times from Exp(0)
  std::string err;
  EXPECT_FALSE(p.Validate(&err));
  EXPECT_NE(err.find("site_mttr"), std::string::npos) << err;
}

TEST(FaultParamsTest, OverlappingCrashWindowsOnOneEndpointAreRejected) {
  FaultParams p;
  p.crashes.push_back({/*endpoint=*/1, /*at=*/1.0, /*duration=*/1.0});
  p.crashes.push_back({/*endpoint=*/1, /*at=*/1.5, /*duration=*/1.0});
  std::string err;
  EXPECT_FALSE(p.Validate(&err));
  EXPECT_NE(err.find("overlap"), std::string::npos) << err;
  // The same windows on different endpoints are fine.
  p.crashes[1].endpoint = 2;
  EXPECT_TRUE(p.Validate(&err)) << err;
  // Back-to-back windows on one endpoint (touching, not overlapping) too.
  p.crashes[1] = {/*endpoint=*/1, /*at=*/2.0, /*duration=*/0.5};
  EXPECT_TRUE(p.Validate(&err)) << err;
}

TEST(FaultParamsTest, MalformedPartitionAndRetryPolicyAreRejected) {
  FaultParams p;
  p.partitions.push_back(
      {/*group=*/{}, /*at=*/1.0, /*duration=*/1.0, /*groups=*/{}});
  std::string err;
  EXPECT_FALSE(p.Validate(&err));
  EXPECT_NE(err.find("empty group"), std::string::npos) << err;
  p.partitions.clear();

  p.rto_initial = kRtoMax * 2;  // initial timeout above the cap
  EXPECT_FALSE(p.Validate(&err));
  EXPECT_NE(err.find("rto_initial"), std::string::npos) << err;
  p = FaultParams{};

  p.amnesia = true;
  p.checkpoint_interval = 0;
  EXPECT_FALSE(p.Validate(&err));
  EXPECT_NE(err.find("checkpoint_interval"), std::string::npos) << err;
}

TEST(FaultInjectorTest, SameSeedSameDrawSequence) {
  Simulation sim_a, sim_b;
  FaultParams p;
  p.loss_prob = 0.3;
  p.dup_prob = 0.2;
  FaultInjector a(&sim_a, 4, p, 42);
  FaultInjector b(&sim_b, 4, p, 42);
  for (int i = 0; i < 500; ++i) {
    SiteId src = static_cast<SiteId>(i % 4);
    SiteId dst = static_cast<SiteId>((i + 1) % 4);
    EXPECT_EQ(a.OnDelivery(src, dst), b.OnDelivery(src, dst)) << i;
  }
  EXPECT_EQ(a.messages_dropped(), b.messages_dropped());
  EXPECT_EQ(a.messages_duplicated(), b.messages_duplicated());
  EXPECT_GT(a.messages_dropped(), 0u);
  EXPECT_GT(a.messages_duplicated(), 0u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  Simulation sim_a, sim_b;
  FaultParams p;
  p.loss_prob = 0.5;
  FaultInjector a(&sim_a, 2, p, 1);
  FaultInjector b(&sim_b, 2, p, 2);
  int diff = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.OnDelivery(0, 1) != b.OnDelivery(0, 1)) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(FaultInjectorTest, DownEndpointDropsBothDirections) {
  Simulation sim;
  FaultParams p;
  FaultInjector inj(&sim, 3, p, 7);
  inj.Crash(1);
  EXPECT_FALSE(inj.IsUp(1));
  EXPECT_EQ(inj.OnDelivery(0, 1), 0);  // into the crashed endpoint
  EXPECT_EQ(inj.OnDelivery(1, 0), 0);  // out of the crashed endpoint
  EXPECT_EQ(inj.OnDelivery(0, 2), 1);  // unaffected pair
  inj.Recover(1);
  EXPECT_TRUE(inj.IsUp(1));
  EXPECT_EQ(inj.OnDelivery(0, 1), 1);
}

TEST(FaultInjectorTest, ScheduledCrashWindowAndDowntime) {
  Simulation sim;
  FaultParams p;
  p.crashes.push_back({/*endpoint=*/0, /*at=*/1.0, /*duration=*/0.5});
  FaultInjector inj(&sim, 2, p, 7);
  bool up_before = false, up_during = true, up_after = false;
  double downtime_during = -1;
  sim.ScheduleCallbackAt(0.9, [&] { up_before = inj.IsUp(0); });
  sim.ScheduleCallbackAt(1.2, [&] {
    up_during = inj.IsUp(0);
    downtime_during = inj.Downtime(0);
  });
  sim.ScheduleCallbackAt(2.0, [&] { up_after = inj.IsUp(0); });
  inj.Start();
  sim.Run();
  EXPECT_TRUE(up_before);
  EXPECT_FALSE(up_during);
  EXPECT_NEAR(downtime_during, 0.2, 1e-12);  // open window counts
  EXPECT_TRUE(up_after);
  EXPECT_NEAR(inj.Downtime(0), 0.5, 1e-12);
  EXPECT_EQ(inj.crashes(), 1u);
}

TEST(FaultInjectorTest, MtbfRotationCrashesAndRecovers) {
  Simulation sim;
  FaultParams p;
  p.site_mtbf = 0.5;
  p.site_mttr = 0.1;
  FaultInjector inj(&sim, 3, p, 11);  // endpoint 2 is the "graph site"
  inj.Start();
  sim.Run(20.0);
  EXPECT_GT(inj.crashes(), 0u);
  EXPECT_GT(inj.Downtime(0) + inj.Downtime(1), 0.0);
  // crash_graph_site defaults off: the last endpoint never crashes.
  EXPECT_NEAR(inj.Downtime(2), 0.0, 1e-12);
  inj.Stop();
  EXPECT_TRUE(inj.IsUp(0));
  EXPECT_TRUE(inj.IsUp(1));
  // After Stop, everything delivers (drain mode) and time can pass with no
  // further transitions.
  EXPECT_EQ(inj.OnDelivery(0, 1), 1);
  double downtime = inj.Downtime(0);
  sim.Run(40.0);
  EXPECT_EQ(inj.Downtime(0), downtime);
}

TEST(FaultParamsTest, TopologyValidationChecksGroupNamesAndRanges) {
  net::TopologySpec spec;
  spec.kind = net::TopologySpec::Kind::kGeo;
  spec.datacenters = 2;
  spec.metros_per_dc = 1;
  net::Topology topo = net::BuildTopology(spec, 6, net::NetworkParams{});

  FaultParams p;
  std::string err;
  p.partitions.push_back(
      {/*group=*/{}, /*at=*/1.0, /*duration=*/1.0, /*groups=*/{}});
  p.partitions.back().groups = {"dc0"};
  EXPECT_TRUE(p.Validate(topo, &err)) << err;

  // Unknown group names are hard errors.
  p.partitions.back().groups = {"dc7"};
  EXPECT_FALSE(p.Validate(topo, &err));
  EXPECT_NE(err.find("unknown topology group"), std::string::npos) << err;

  // Overlapping halves: dc0 and its own metro claim the same endpoints.
  p.partitions.back().groups = {"dc0", "dc0.m0"};
  EXPECT_FALSE(p.Validate(topo, &err));
  EXPECT_NE(err.find("overlapping halves"), std::string::npos) << err;

  // Mixing the endpoint-list and named-group spellings is rejected.
  p.partitions.back().groups = {"dc0"};
  p.partitions.back().group = {0};
  EXPECT_FALSE(p.Validate(topo, &err));
  EXPECT_NE(err.find("one spelling"), std::string::npos) << err;

  // Endpoint ranges for legacy partitions and crashes come from the
  // topology (6 sites -> endpoints 0..5).
  p.partitions.clear();
  p.partitions.push_back(
      {/*group=*/{0, 6}, /*at=*/1.0, /*duration=*/1.0, /*groups=*/{}});
  EXPECT_FALSE(p.Validate(topo, &err));
  EXPECT_NE(err.find("outside topology"), std::string::npos) << err;
  p.partitions.clear();
  p.crashes.push_back({/*endpoint=*/6, /*at=*/1.0, /*duration=*/1.0});
  EXPECT_FALSE(p.Validate(topo, &err));
  EXPECT_NE(err.find("outside topology"), std::string::npos) << err;
}

TEST(FaultInjectorTest, NamedGroupPartitionIsolatesSubtree) {
  Simulation sim;
  net::TopologySpec spec;
  spec.kind = net::TopologySpec::Kind::kGeo;
  spec.datacenters = 2;
  spec.metros_per_dc = 1;
  net::Topology topo = net::BuildTopology(spec, 4, net::NetworkParams{});
  FaultParams p;
  p.partitions.push_back(
      {/*group=*/{}, /*at=*/1.0, /*duration=*/1.0, /*groups=*/{}});
  p.partitions.back().groups = {"dc0"};  // endpoints {0, 1} vs {2, 3}
  FaultInjector inj(&sim, 4, p, 7, &topo);
  inj.Start();
  int in_island = -1, cross_out = -1, cross_in = -1, other_island = -1;
  sim.ScheduleCallbackAt(1.5, [&] {
    in_island = inj.OnDelivery(0, 1);
    cross_out = inj.OnDelivery(0, 2);
    cross_in = inj.OnDelivery(3, 1);
    other_island = inj.OnDelivery(2, 3);
  });
  int healed = -1;
  sim.ScheduleCallbackAt(2.5, [&] { healed = inj.OnDelivery(0, 2); });
  sim.Run();
  EXPECT_EQ(in_island, 1);
  EXPECT_EQ(cross_out, 0);
  EXPECT_EQ(cross_in, 0);
  EXPECT_EQ(other_island, 1);
  EXPECT_EQ(healed, 1);
}

TEST(FaultInjectorTest, PartitionDropsOnlyCrossGroupLegs) {
  Simulation sim;
  FaultParams p;
  p.partitions.push_back(
      {/*group=*/{0, 1}, /*at=*/1.0, /*duration=*/1.0, /*groups=*/{}});
  FaultInjector inj(&sim, 4, p, 7);
  int in_group = -1, cross_out = -1, cross_in = -1, outsiders = -1;
  sim.ScheduleCallbackAt(0.5, [&] { EXPECT_EQ(inj.OnDelivery(0, 2), 1); });
  sim.ScheduleCallbackAt(1.5, [&] {
    in_group = inj.OnDelivery(0, 1);
    cross_out = inj.OnDelivery(0, 2);
    cross_in = inj.OnDelivery(3, 1);
    outsiders = inj.OnDelivery(2, 3);
  });
  sim.ScheduleCallbackAt(2.5, [&] { EXPECT_EQ(inj.OnDelivery(0, 2), 1); });
  inj.Start();
  sim.Run();
  // Members talk among themselves, outsiders among themselves; every leg
  // crossing the boundary is dropped at the switch. Endpoints stay up.
  EXPECT_EQ(in_group, 1);
  EXPECT_EQ(cross_out, 0);
  EXPECT_EQ(cross_in, 0);
  EXPECT_EQ(outsiders, 1);
  EXPECT_EQ(inj.partition_drops(), 2u);
  EXPECT_EQ(inj.partitions_activated(), 1u);
  EXPECT_EQ(inj.crashes(), 0u);
  EXPECT_TRUE(inj.IsUp(0));
}

TEST(FaultInjectorTest, StopCancelsRotationRestartedByScriptedOutage) {
  // Regression: a scripted outage on an endpoint that is also in the MTBF
  // rotation restarts the rotation via FinishRecovery while the rotation's
  // original draw is still scheduled. The superseded event must be
  // cancelled, not orphaned — an orphan survives Stop() and fires a crash
  // into the post-measurement drain, permanently downing the endpoint.
  Simulation sim;
  FaultParams p;
  p.site_mtbf = 50.0;  // first rotation draw lands far in the future
  p.site_mttr = 0.1;
  p.crashes.push_back({/*endpoint=*/0, /*at=*/0.5, /*duration=*/0.2});
  FaultInjector inj(&sim, 2, p, 3);
  // Mimic the System's amnesia recovery flow: Recover() parks the endpoint
  // in the recovering state and the replay completes one callback later.
  inj.set_recovery_hook([&](int e) {
    sim.ScheduleCallbackAt(sim.Now(), [&inj, e] { inj.FinishRecovery(e); });
  });
  inj.Start();
  sim.Run(2.0);  // scripted window done; rotation restarted by the recovery
  EXPECT_EQ(inj.crashes(), 1u);
  EXPECT_TRUE(inj.IsUp(0));
  inj.Stop();
  sim.Run(500.0);  // several rotation means past Stop: nothing may fire
  EXPECT_EQ(inj.crashes(), 1u);
  EXPECT_TRUE(inj.IsUp(0));
  EXPECT_FALSE(inj.Recovering(0));
}

Process DoTransfer(Simulation* sim, net::Network* net, SiteId src,
                   SiteId dst, size_t bytes, bool* arrived, double* done_at) {
  *arrived = co_await net->Transfer(src, dst, bytes);
  *done_at = sim->Now();
}

TEST(NetworkFaultHookTest, DroppedTransferReturnsFalse) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.1, 1e6});
  net.set_fault_hook([](SiteId, SiteId) { return 0; });
  bool arrived = true;
  double done = -1;
  sim.Spawn(DoTransfer(&sim, &net, 0, 1, 12500, &arrived, &done));
  sim.Run();
  EXPECT_FALSE(arrived);
  // Loss happens at the switch: send tx (0.1) + latency (0.1), no receive.
  EXPECT_NEAR(done, 0.2, 1e-12);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_delivered(), 0u);
}

TEST(NetworkFaultHookTest, DuplicateOccupiesIncomingLinkTwice) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e6});
  net.set_fault_hook([](SiteId, SiteId) { return 2; });
  bool arrived = false;
  double done = -1;
  sim.Spawn(DoTransfer(&sim, &net, 0, 1, 12500, &arrived, &done));
  sim.Run();
  EXPECT_TRUE(arrived);
  // send 0.1 + two receive transmissions of 0.1 each.
  EXPECT_NEAR(done, 0.3, 1e-12);
  EXPECT_EQ(net.copies_duplicated(), 1u);
  EXPECT_EQ(net.messages_delivered(), 1u);  // payload counted once
}

Process DoSend(Simulation* sim, ReliableChannel* ch, SiteId src, SiteId dst,
               size_t bytes, int retries, bool* ok, double* done_at) {
  *ok = co_await ch->Send(src, dst, bytes, retries);
  *done_at = sim->Now();
}

FaultParams ChannelParams() {
  FaultParams p;
  p.rto_initial = 0.05;
  return p;
}

TEST(ReliableChannelTest, RetransmitsUntilDeliveredWithBackoff) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  int drops_left = 2;  // first two payload legs into site 1 are lost
  net.set_fault_hook([&](SiteId, SiteId dst) {
    if (dst == 1 && drops_left > 0) {
      --drops_left;
      return 0;
    }
    return 1;
  });
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  bool ok = false;
  double done = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok, &done));
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(ch.retransmissions(), 2u);
  EXPECT_EQ(ch.delivered(), 1u);
  // Two timer expiries before success: 0.05 + 0.10 (exponential backoff).
  EXPECT_GE(done, 0.15);
  EXPECT_LT(done, 0.2);
}

TEST(ReliableChannelTest, CappedRetriesGiveUp) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  net.set_fault_hook([](SiteId, SiteId) { return 0; });  // black hole
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  bool ok = true;
  double done = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, /*retries=*/3, &ok, &done));
  sim.Run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(ch.send_failures(), 1u);
  EXPECT_EQ(ch.retransmissions(), 3u);
  EXPECT_EQ(ch.delivered(), 0u);
}

TEST(ReliableChannelTest, RtoCapBoundsExponentialBackoff) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  int drops_left = 6;  // six payload legs lost, the seventh delivers
  net.set_fault_hook([&](SiteId, SiteId dst) {
    if (dst == 1 && drops_left > 0) {
      --drops_left;
      return 0;
    }
    return 1;
  });
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  bool ok = false;
  double done = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok, &done));
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(ch.retransmissions(), 6u);
  // Timeouts 0.05 + 0.1 + 0.2 + 0.4 + 0.8, then capped at 1.0 (not 1.6):
  // the 7th attempt leaves at 2.55. Uncapped it would leave at 3.15.
  EXPECT_GE(done, 2.55);
  EXPECT_LT(done, 2.6);
}

TEST(ReliableChannelTest, GiveUpThenFreshSendSucceedsAfterRecovery) {
  // A capped send into a dead receiver exhausts its budget and resolves
  // false; once the receiver is reachable again a fresh send must go
  // through, untouched by the abandoned attempt.
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  bool receiver_down = true;
  net.set_fault_hook(
      [&](SiteId, SiteId dst) { return (dst == 1 && receiver_down) ? 0 : 1; });
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  bool ok1 = true, ok2 = false;
  double t1 = -1, t2 = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, /*retries=*/3, &ok1, &t1));
  sim.Run();
  EXPECT_FALSE(ok1);
  EXPECT_EQ(ch.send_failures(), 1u);
  receiver_down = false;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, /*retries=*/3, &ok2, &t2));
  sim.Run();
  EXPECT_TRUE(ok2);
  EXPECT_EQ(ch.delivered(), 1u);
  EXPECT_EQ(ch.send_failures(), 1u);
}

TEST(ReliableChannelTest, LostAckTriggersDedupedRetransmission) {
  Simulation sim;
  net::Network net(&sim, 2, net::NetworkParams{0.0, 1e9});
  int ack_drops = 1;  // payload arrives; the first ack (into site 0) is lost
  net.set_fault_hook([&](SiteId, SiteId dst) {
    if (dst == 0 && ack_drops > 0) {
      --ack_drops;
      return 0;
    }
    return 1;
  });
  ReliableChannel ch(&sim, &net, ChannelParams(), 64);
  std::vector<SiteId> charged;
  ch.set_charge([&](SiteId e) -> sim::Task<void> {
    charged.push_back(e);
    co_return;
  });
  bool ok = false;
  double done = -1;
  sim.Spawn(DoSend(&sim, &ch, 0, 1, 128, kRetryForever, &ok, &done));
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(ch.retransmissions(), 1u);
  EXPECT_EQ(ch.delivered(), 1u);  // handed to the receiver exactly once
  // Dedup cost at the receiver (1) and re-send cost at the sender (0).
  ASSERT_EQ(charged.size(), 2u);
  EXPECT_EQ(charged[0], 1);
  EXPECT_EQ(charged[1], 0);
}

}  // namespace
}  // namespace lazyrep::fault
