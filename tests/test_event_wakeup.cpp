// Timer-wakeup regression tests for the event-queue kernel (DESIGN.md
// §4.10): every class of *delayed* action must schedule a router
// self-tick at (or before) its due cycle, else an otherwise-idle router
// sleeps through it and the event kernel diverges from the scan kernel.
//
// Each test locks a scan-kernel network and an event-kernel network built
// from the same config into cycle-by-cycle state_digest() comparison.
// Low injection rates are deliberate: wake bugs only manifest when
// routers actually go idle between events — a saturated mesh re-ticks
// every cycle and hides them (the PR 3 drop-window and PR 5
// staged-replay bugs both survived saturated testing and lived exactly
// in this seam).
//
// Delayed-action classes covered:
//   1. HBH NACK send_at / drop windows      (link errors, 3- and 4-stage)
//   2. Retransmission-barrel retire deadlines (NACK window expiry)
//   3. Probe timeouts and own-probe GC      (deadlock recovery, the one
//      exact WakeInfo::timer)
//   4. Drain-then-kill completion           (runtime link escalation)
//
// PEs sleep too: the event kernel steps one only when it is due. The
// PeWake tests below cover each way a sleeping PE is woken — its
// source's armed cycle (including look-ahead checkpoints), an E2E NACK
// requeue, a packet enqueued between steps — and the one reason a PE
// with nothing to send stays due: pending packets held back by the
// deadlock-recovery gate, which can lift on any cycle. The fourth wake, a
// credit returned to the PE, is on every injecting test in this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "noc/network.hpp"

namespace ftnoc {
namespace {

// Steps both kernels in lock-step and fails on the first digest mismatch.
// A mismatch cycle is the wake bug's signature: the event kernel skipped
// (or double-ran nothing — steps are idempotent when quiescent) a router
// step the scan kernel performed.
// Returns the event network's stats so each test can additionally assert
// its delayed-action class actually fired (a scenario that arms no
// windows proves nothing).
const StatsCollector& expect_lockstep(Network& scan, Network& event,
                                      Cycle cycles) {
  for (Cycle c = 0; c < cycles; ++c) {
    scan.step();
    event.step();
    EXPECT_EQ(scan.state_digest(), event.state_digest())
        << "event kernel diverged from scan kernel at cycle "
        << event.now() << " — a delayed action fired without a scheduled "
        << "self-tick (timer-wakeup bug)";
    if (scan.state_digest() != event.state_digest()) break;
  }
  return event.stats();
}

struct KernelPair {
  KernelPair(SimConfig cfg) : scan_cfg(cfg), event_cfg(cfg) {
    scan_cfg.force_scan_kernel = true;
    event_cfg.force_scan_kernel = false;
    scan.emplace(scan_cfg);
    event.emplace(event_cfg);
    // Most fault/deadlock counters only bump inside the measurement
    // window (the Simulator opens it at the warm-up boundary); open it
    // from cycle 0 so the scenario-has-teeth assertions below see them.
    scan->stats().begin_measurement(0);
    event->stats().begin_measurement(0);
  }
  const StatsCollector& run(Cycle cycles) {
    return expect_lockstep(*scan, *event, cycles);
  }
  SimConfig scan_cfg;
  SimConfig event_cfg;
  std::optional<Network> scan;
  std::optional<Network> event;
};

// Sparse traffic so routers idle between packets; every delayed action
// then has to wake its router itself rather than riding a traffic tick.
SimConfig sparse_base() {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_vcs = 2;
  cfg.vc_buffer_depth = 4;
  cfg.packet_length = 4;
  cfg.injection_rate = 0.02;
  cfg.warmup_messages = 0;
  cfg.total_messages = 50;
  cfg.max_cycles = 10'000;
  cfg.seed = 7;
  return cfg;
}

// Class 1+2: HBH protection with real link errors. Corrupted flits arm
// NACK send_at delays and receiver drop windows; every transmission arms
// a retransmission-barrel retire deadline (sent_at + nack_window + 1)
// that must fire on an otherwise-idle sender.
TEST(EventWakeup, HbhNackAndDropWindows) {
  SimConfig cfg = sparse_base();
  cfg.protection = LinkProtection::kHbh;
  cfg.faults.link_error_rate = 0.01;
  cfg.faults.multi_bit_fraction = 0.3;  // Real NACK traffic, not just FEC.
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(3000).nacks_sent(), 0u)
      << "scenario armed no NACK/drop windows";
}

// Same classes through the 4-stage pipeline: the dedicated ST stage and
// deeper barrels shift every window by a cycle, which is where the PR 3
// drop-window bug lived.
TEST(EventWakeup, HbhWindowsFourStage) {
  SimConfig cfg = sparse_base();
  cfg.protection = LinkProtection::kHbh;
  cfg.pipeline_stages = 4;
  cfg.retransmission_depth = 4;
  cfg.faults.link_error_rate = 0.01;
  cfg.faults.multi_bit_fraction = 0.3;
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(3000).nacks_sent(), 0u)
      << "scenario armed no NACK/drop windows";
}

// Class 3: probe timeouts. Adaptive routing with recovery enabled and a
// low probe threshold sends real probes; the own-probe bookkeeping GC at
// sent_at + probe_timeout + 1 is the one delayed action an otherwise
// fully idle router performs, carried by the exact WakeInfo::timer.
TEST(EventWakeup, ProbeTimeoutGc) {
  SimConfig cfg = sparse_base();
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.num_vcs = 2;
  cfg.injection_rate = 0.35;  // Enough contention to arm probes...
  cfg.total_messages = 120;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 16;  // ...and the due-cycle probe GC
  KernelPair nets(cfg);  // GC fires on idle routers.
  EXPECT_GT(nets.run(4000).probes_sent(), 0u) << "scenario sent no probes";
}

// Class 3, idle half: the GC must fire on a network with NO traffic left.
// A hotspot burst arms probes, then injection stops entirely; the records
// in own_probe_route_ are only collected at sent_at + probe_timeout + 1,
// long after every wire has settled — if the WakeInfo::timer is dropped,
// the event-kernel router sleeps forever with the stale record and the
// digests stay diverged. (The saturated ProbeTimeoutGc test above cannot
// catch that: continuous traffic re-ticks the router every cycle.)
TEST(EventWakeup, ProbeGcAfterTrafficDrains) {
  SimConfig cfg = sparse_base();
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.num_vcs = 1;  // Single-VC adaptive: the cyclic burst really deadlocks.
  cfg.injection_rate = 0.0;  // Manual burst only.
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 24;
  cfg.deadlock.probe_backoff = 16;
  cfg.deadlock.probe_timeout = 256;
  KernelPair nets(cfg);
  // Diagonal cyclic streams (the IntegrationDeadlock pattern): a real
  // deadlock forms, recovery breaks it, and exit_recovery() orphans the
  // in-flight probe bookkeeping — the record that only the due-cycle GC
  // can reclaim once the burst has drained and the mesh is silent.
  for (int i = 0; i < 8; ++i) {
    for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{0, 3},
                                   {1, 2}, {3, 0}, {2, 1}}) {
      nets.scan->inject_packet(src, dst, 4);
      nets.event->inject_packet(src, dst, 4);
    }
  }
  const auto& st = nets.run(2500);
  EXPECT_GT(st.probes_sent(), 0u) << "burst armed no probes";
  EXPECT_GT(st.recoveries_entered(), 0u) << "burst never deadlocked";
}

// Class 4: drain-then-kill. A low escalation threshold under heavy link
// errors triggers runtime escalation; the draining port must keep
// re-ticking its router until the drain completes and the port goes
// hard-dead — even after all traffic has left the neighbourhood.
TEST(EventWakeup, DrainThenKillCompletion) {
  SimConfig cfg = sparse_base();
  cfg.protection = LinkProtection::kHbh;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;  // Survives dead links.
  cfg.faults.link_error_rate = 0.02;
  cfg.faults.multi_bit_fraction = 0.5;
  cfg.faults.link_escalation_threshold = 1;
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(4000).links_escalated(), 0u)
      << "scenario escalated no links";
}

// Class 5: storm kills (PR 8). Links die mid-run on a config timeline —
// the event kernel must fire each kill at the same cycle as the scan
// kernel, schedule both endpoints' drains, and keep stepping them until
// the drains complete; the route-epoch re-home of parked kVaWait heads
// must also land on the same cycle in both kernels. adaptive_faults is on
// so kills whose drains swallow a head's whole minimal set exercise the
// non-minimal escape tier in lock-step too.
TEST(EventWakeup, StormKillsMidRunLockstep) {
  SimConfig cfg = sparse_base();
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.adaptive_faults = true;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 32;
  cfg.deadlock.probe_backoff = 17;
  cfg.injection_rate = 0.15;
  cfg.total_messages = 200;
  cfg.storm_kills.push_back({200, 5, Direction::kEast});
  cfg.storm_kills.push_back({500, 9, Direction::kEast});
  cfg.storm_kills.push_back({800, 6, Direction::kNorth});
  KernelPair nets(cfg);
  EXPECT_EQ(nets.run(4000).links_storm_killed(), 3u)
      << "storm timeline never fully fired";
}

// Production-fabric scale: a 16x16 torus (256 routers, wrap-around
// channels) with link errors, a dead link and a dead router. Every other
// lockstep test runs a 4x4 (or 2x2) mesh, where the event kernel's wake
// graph is dense and near-saturated almost by accident; at 256 routers
// under sparse traffic most of the fabric is genuinely idle most cycles,
// so a wake rule that under-schedules (or a wrap-channel wire the wake
// graph forgot) diverges here and nowhere else.
TEST(EventWakeup, LargeTorusFaultedLockstep) {
  SimConfig cfg = sparse_base();
  cfg.mesh_width = 16;
  cfg.mesh_height = 16;
  cfg.torus = true;
  cfg.protection = LinkProtection::kHbh;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.injection_rate = 0.01;  // ~2.5 flits/cycle over 256 routers: idle-heavy.
  cfg.total_messages = 150;
  cfg.faults.link_error_rate = 0.005;
  cfg.faults.multi_bit_fraction = 0.3;  // Arms NACK windows at scale.
  cfg.dead_links.push_back({17, Direction::kEast});
  cfg.dead_routers.push_back(200);
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(2000).nacks_sent(), 0u)
      << "scenario armed no NACK/drop windows at scale";
}

// Workload replay on a faulted mesh with per-link accounting on: trace
// release is pure timer-driven injection (no Bernoulli ticks to ride), so
// every burst's release cycle must wake its source PE in the event kernel
// by itself — and the link_stats accumulators read architectural state
// after the wire ticks, so they must come out byte-identical across
// kernels too. A sender block rides through a dead source router to pin
// the dead-source drop path into the same lockstep.
TEST(EventWakeup, WorkloadReplayFaultedLockstep) {
  SimConfig cfg = sparse_base();
  cfg.injection_rate = 0.0;  // Pure workload-driven.
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.adaptive_faults = true;
  cfg.link_stats = true;
  cfg.dead_links.push_back({5, Direction::kEast});
  cfg.dead_routers.push_back(10);
  cfg.workload_text =
      "packet_flits 4\n"
      "many_to_one sink start=0 dest=0 flits=8 count=2 period=400 "
      "stagger=13\n"
      "transfer echo start=900 src=0 dest=15 flits=12\n";
  KernelPair nets(cfg);
  const auto& st = nets.run(3000);
  EXPECT_GT(st.messages_ejected(), 0u) << "workload delivered nothing";
  // Sender 10 is dead: its 2 bursts x 2 packets drop at release, in both
  // kernels.
  EXPECT_EQ(st.dead_source_drops(), 4u);
  EXPECT_EQ(nets.scan->stats().dead_source_drops(), 4u);
  EXPECT_EQ(nets.scan->link_fwd_counts(), nets.event->link_fwd_counts());
  EXPECT_EQ(nets.scan->link_stall_counts(), nets.event->link_stall_counts());
}

// Statically faulted topology: dead links and a dead router reshape the
// wake graph (some wires never exist); the event kernel must still cover
// every live router's delayed actions.
TEST(EventWakeup, FaultedTopologyLockstep) {
  SimConfig cfg = sparse_base();
  cfg.protection = LinkProtection::kHbh;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.faults.link_error_rate = 0.005;
  cfg.dead_links.push_back({5, Direction::kEast});
  cfg.dead_routers.push_back(10);
  KernelPair nets(cfg);
  nets.run(3000);
}

// --- Blocked sleep ---------------------------------------------------------
// A router whose step wrote no wire and whose busy VCs all wait on a credit
// or on a held output VC sleeps until a wire wakes it or its earliest timer
// fires; its next step catches up the VA rotations the skipped steps would
// have advanced (DESIGN.md §4.10). One lockstep test per wake source. The
// loads are high on purpose: blocked routers only exist where traffic
// backs up.

// Uniform traffic well past saturation on a small mesh: every router
// upstream of a full buffer waits on credits.
SimConfig congested_base() {
  SimConfig cfg = sparse_base();
  cfg.injection_rate = 0.6;
  cfg.total_messages = 400;
  return cfg;
}

// The credit wake: a credit-starved router sleeps until its downstream
// neighbour frees a slot and the credit crosses the wire.
TEST(BlockedSleep, CreditWake) {
  SimConfig cfg = congested_base();
  cfg.num_vcs = 3;
  cfg.vc_buffer_depth = 2;
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(2500).messages_ejected(), 100u);
}

// The kill wake: a storm kill moves the route epoch, and every router —
// also one asleep on a waiting head far from the dead link — re-homes its
// waiting heads next cycle, as every router does under the scan kernel.
TEST(BlockedSleep, KillEpochWakesSleepers) {
  SimConfig cfg = congested_base();
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.adaptive_faults = true;
  cfg.storm_kills.push_back({300, 5, Direction::kEast});
  cfg.storm_kills.push_back({600, 9, Direction::kSouth});
  cfg.storm_kills.push_back({900, 10, Direction::kWest});
  KernelPair nets(cfg);
  const auto& st = nets.run(1200);
  EXPECT_EQ(st.links_storm_killed(), 3u) << "storm timeline never fired";
  EXPECT_GT(st.packets_rerouted(), 0u) << "no kill re-routed a packet";
}

// The retire timer: under HBH every transmission leaves a barrel copy
// that retires when its NACK window closes, also on a sender asleep on
// credits.
TEST(BlockedSleep, RetireTimer) {
  SimConfig cfg = congested_base();
  cfg.protection = LinkProtection::kHbh;
  cfg.faults.link_error_rate = 0.002;
  cfg.faults.multi_bit_fraction = 0.3;
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(2500).nacks_sent(), 0u);
}

// The stall timer: an upset route under XY stalls its head for the
// receiver's NACK and re-route (1 + stages cycles). The head's router has
// nothing else to do, so only the stall's end wakes it.
TEST(BlockedSleep, StallTimer) {
  SimConfig cfg = sparse_base();
  cfg.faults.rt_error_rate = 0.05;
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(3000).rt_errors_recovered(), 0u)
      << "no route upset stalled a head";
}

// The probe timer: a real deadlock leaves every router of the cycle
// asleep on credits; only the cycle its first probe may launch (past
// Cthres, the live probe's timeout and the backoff) wakes it.
TEST(BlockedSleep, ProbeTimer) {
  SimConfig cfg = sparse_base();
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.num_vcs = 1;
  cfg.injection_rate = 0.0;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 40;
  cfg.deadlock.probe_backoff = 23;
  cfg.deadlock.probe_timeout = 64;
  KernelPair nets(cfg);
  for (int i = 0; i < 8; ++i) {
    for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{0, 3},
                                   {1, 2}, {3, 0}, {2, 1}}) {
      nets.scan->inject_packet(src, dst, 4);
      nets.event->inject_packet(src, dst, 4);
    }
  }
  const auto& st = nets.run(3000);
  EXPECT_GT(st.probes_sent(), 0u) << "burst armed no probes";
  EXPECT_GT(st.recoveries_entered(), 0u) << "burst never deadlocked";
  EXPECT_EQ(st.messages_ejected(), 32u);
}

// Rotation catch-up: heads waiting out a deadlock sleep for Cthres cycles
// and more, then are granted one of two free output VCs (the diagonal
// destination's two minimal ports) by their rotation. A rotation that
// missed the skipped steps picks the other port, and the digest, which
// hashes the rotation, diverges from the first sleeping cycle.
TEST(BlockedSleep, VaGrantAfterLongSleep) {
  SimConfig cfg = sparse_base();
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.num_vcs = 1;
  cfg.injection_rate = 0.0;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 150;
  cfg.deadlock.probe_backoff = 41;
  KernelPair nets(cfg);
  for (int i = 0; i < 12; ++i) {
    for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{0, 3},
                                   {1, 2}, {3, 0}, {2, 1}}) {
      nets.scan->inject_packet(src, dst, 4);
      nets.event->inject_packet(src, dst, 4);
    }
  }
  const auto& st = nets.run(4000);
  EXPECT_GT(st.recoveries_entered(), 0u) << "burst never deadlocked";
  EXPECT_EQ(st.messages_ejected(), 48u);
}

// The source's armed cycle: gaps far beyond the 256-cycle wheel and the
// look-ahead chunk, so PEs sleep across no-fire checkpoints. A PE that
// slept through its source's armed cycle or a checkpoint would never
// inject again.
TEST(PeWake, SourceGapsBeyondLookAheadChunk) {
  SimConfig cfg = sparse_base();
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.injection_rate = 0.0005;  // One packet per ~8000 cycles per PE.
  KernelPair nets(cfg);
  std::vector<std::vector<Cycle>> births(4);
  nets.event->set_delivery_listener(
      [&](NodeId, const Flit& tail, Cycle) {
        births[tail.src].push_back(tail.birth_cycle);
      });
  nets.run(60'000);
  Cycle max_gap = 0;
  for (const auto& b : births) {
    for (std::size_t k = 1; k < b.size(); ++k) {
      max_gap = std::max(max_gap, b[k] - b[k - 1]);
    }
  }
  EXPECT_GT(nets.event->stats().messages_ejected(), 10u);
  EXPECT_GT(max_gap, TrafficSource::kLookAheadChunk)
      << "no gap outran the look-ahead chunk";
}

// An E2E NACK requeues a clean copy at the front of a source PE that is
// most likely asleep at this load; the requeue must wake it.
TEST(PeWake, E2eNackRequeueAtLowLoad) {
  SimConfig cfg = sparse_base();
  cfg.protection = LinkProtection::kE2e;
  cfg.injection_rate = 0.01;
  cfg.faults.link_error_rate = 0.01;
  cfg.faults.multi_bit_fraction = 0.5;  // Uncorrectable: real NACKs.
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(6000).e2e_retransmits(), 0u)
      << "scenario requeued no E2E retransmission";
}

// Packets handed straight to a PE between steps (the Network::pe()
// surface) must wake it: the sourceless PEs here would otherwise sleep
// forever.
TEST(PeWake, EnqueueBetweenSteps) {
  SimConfig cfg = sparse_base();
  cfg.injection_rate = 0.0;
  KernelPair nets(cfg);
  PacketId pid = 1;
  for (Cycle at : {Cycle{0}, Cycle{40}, Cycle{41}, Cycle{700}, Cycle{1500}}) {
    while (nets.event->now() < at) {
      nets.scan->step();
      nets.event->step();
      ASSERT_EQ(nets.scan->state_digest(), nets.event->state_digest())
          << "diverged at cycle " << nets.event->now();
    }
    const auto src = static_cast<NodeId>(at % 16);
    const auto dest = static_cast<NodeId>((at + 5) % 16);
    for (Network* net : {&*nets.scan, &*nets.event}) {
      net->pe(src).enqueue_packet(
          TrafficSource::build_packet(pid, src, dest, 4, at, nullptr));
    }
    ++pid;
  }
  EXPECT_EQ(nets.run(1000).messages_ejected(), 5u)
      << "an enqueued packet was never delivered";
}

// Deadlock recovery gates new packets chip-wide. A PE whose pending
// packets are held back only by that gate has nothing to send, yet must
// stay due: the gate lifts on a cycle no wake announces. The 2x2 cyclic
// burst of ProbeGcAfterTrafficDrains deadlocks for real; a deep queue of
// short packets behind it is still pending when recovery runs.
TEST(PeWake, RecoveryGatedPendingPe) {
  SimConfig cfg = sparse_base();
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.num_vcs = 1;
  cfg.injection_rate = 0.0;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 24;
  cfg.deadlock.probe_backoff = 16;
  KernelPair nets(cfg);
  for (int i = 0; i < 24; ++i) {
    for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{0, 3},
                                   {1, 2}, {3, 0}, {2, 1}}) {
      nets.scan->inject_packet(src, dst, 4);
      nets.event->inject_packet(src, dst, 4);
    }
  }
  // Count the cycles on which some router recovers while a PE still
  // holds pending packets — the gated state this test is about.
  int gated_cycles = 0;
  for (Cycle c = 0; c < 3000; ++c) {
    nets.scan->step();
    nets.event->step();
    ASSERT_EQ(nets.scan->state_digest(), nets.event->state_digest())
        << "diverged at cycle " << nets.event->now();
    bool recovering = false;
    bool pending = false;
    for (NodeId n = 0; n < 4; ++n) {
      recovering = recovering || nets.event->router_base(n).in_recovery();
      pending = pending || nets.event->pe(n).pending_packets() > 0;
    }
    if (recovering && pending) ++gated_cycles;
  }
  EXPECT_GT(nets.event->stats().recoveries_entered(), 0u)
      << "burst never deadlocked";
  EXPECT_GT(gated_cycles, 0) << "no PE was held back by recovery";
  EXPECT_EQ(nets.event->stats().messages_ejected(), 96u);
}

}  // namespace
}  // namespace ftnoc
