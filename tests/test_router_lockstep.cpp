// Pinned router trajectories: each config below is stepped on the event
// kernel and the scan kernel side by side, state_digest() compared every
// cycle, and every cycle's digest folded through digest::Mixer into one
// value pinned as a constant. The pins were recorded from the same
// configs stepped against an independent reference router implementation
// with no derived state, so they are that model's trajectory: any change
// to behaviour — including a derived mask that silently drifts from the
// state it summarises — moves the fold. Each config drives one branch of
// the router's mask algebra:
//   * adaptive_escape — the escape-lane filter of the VA option mask;
//   * voq             — the VOQ lane filter;
//   * adaptive + adaptive_faults + recovery + storm kills — draining
//     ports, kVaWait chain resolution through the allocated-output mask
//     and Rule 1 probes behind the per-cycle probe gate;
//   * 4-stage pipeline — the staged switch-traversal register.
// The invariant monitor (with the router's derived-state audit) runs on
// both networks throughout.

#include <gtest/gtest.h>

#include <cstdint>

#include "common/config.hpp"
#include "noc/digest.hpp"
#include "noc/network.hpp"

namespace ftnoc {
namespace {

// Steps the event and scan kernels for `cycles` in lockstep under the
// invariant monitor, checks the folded digest trajectory against `pin`,
// and returns the event network's stats so each test can check its
// scenario exercised the branch it is about.
StatsCollector run_pinned(SimConfig cfg, Cycle cycles, std::uint64_t pin) {
  cfg.check_invariants = true;
  EXPECT_EQ(cfg.validate(), std::nullopt);
  SimConfig scan_cfg = cfg;
  scan_cfg.force_scan_kernel = true;
  Network event(cfg);
  Network scan(scan_cfg);
  if (auto* m = event.monitor()) m->set_abort_on_violation(false);
  if (auto* m = scan.monitor()) m->set_abort_on_violation(false);
  event.stats().begin_measurement(0);
  scan.stats().begin_measurement(0);
  digest::Mixer trajectory;
  for (Cycle c = 0; c < cycles; ++c) {
    event.step();
    scan.step();
    const std::uint64_t d = event.state_digest();
    if (d != scan.state_digest()) {
      ADD_FAILURE() << "scan and event kernels diverged at cycle "
                    << event.now();
      break;
    }
    trajectory.mix(d);
  }
  EXPECT_EQ(trajectory.value(), pin)
      << "state trajectory moved off the pinned one (got 0x" << std::hex
      << trajectory.value() << ")";
  for (Network* net : {&event, &scan}) {
    const auto* mon = net->monitor();
    EXPECT_NE(mon, nullptr);
    if (mon != nullptr) {
      EXPECT_EQ(mon->violations(), 0u) << mon->first_violation();
    }
  }
  EXPECT_GT(event.stats().messages_ejected(), 0u) << "no traffic delivered";
  return event.stats();
}

// Loaded enough that heads wait for output VCs (the VA option mask then
// filters real contention), short enough to stay a tier-1 test.
SimConfig loaded_4x4() {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_vcs = 3;
  cfg.vc_buffer_depth = 4;
  cfg.packet_length = 4;
  cfg.injection_rate = 0.30;
  cfg.warmup_messages = 0;
  cfg.total_messages = 100'000;
  cfg.max_cycles = 100'000;
  cfg.seed = 13;
  return cfg;
}

TEST(RouterLockstep, AdaptiveEscapeLaneFilter) {
  SimConfig cfg = loaded_4x4();
  cfg.routing = RoutingAlgorithm::kAdaptiveEscape;
  run_pinned(cfg, 3000, 0x62fbe468c008054bull);
}

TEST(RouterLockstep, VoqLaneFilter) {
  SimConfig cfg = loaded_4x4();
  cfg.buffer_policy = BufferPolicyKind::kVoq;
  cfg.num_vcs = 4;
  run_pinned(cfg, 3000, 0x404d8ea30c3e580cull);
}

TEST(RouterLockstep, AdaptiveRecoveryWithStormKills) {
  SimConfig cfg = loaded_4x4();
  cfg.num_vcs = 2;
  cfg.injection_rate = 0.40;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.adaptive_faults = true;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 16;
  cfg.storm_kills.push_back({400, 5, Direction::kEast});
  cfg.storm_kills.push_back({900, 10, Direction::kNorth});
  const StatsCollector s = run_pinned(cfg, 3000, 0x5a9fc31c2bb17c55ull);
  EXPECT_EQ(s.links_storm_killed(), 2u) << "storm timeline never fired";
  EXPECT_GT(s.packets_rerouted(), 0u) << "no draining-port re-home";
  EXPECT_GT(s.hard_fault_reroutes(), 0u) << "no detour around a dead port";
  EXPECT_GT(s.probes_sent(), 0u) << "Rule 1 never launched a probe";
  EXPECT_GT(s.deadlocks_confirmed(), 0u) << "no probe closed a chain";
  EXPECT_GT(s.recoveries_entered(), 0u) << "recovery never entered";
}

TEST(RouterLockstep, FourStagePipeline) {
  SimConfig cfg = loaded_4x4();
  cfg.pipeline_stages = 4;
  cfg.retransmission_depth = 4;
  cfg.protection = LinkProtection::kHbh;
  cfg.faults.link_error_rate = 1e-3;
  cfg.faults.multi_bit_fraction = 0.3;  // Real NACKs, not just FEC.
  const StatsCollector s = run_pinned(cfg, 3000, 0x073a7c35b45963e2ull);
  EXPECT_GT(s.nacks_sent(), 0u) << "no replay through the staged register";
}

}  // namespace
}  // namespace ftnoc
