// Router vs ReferenceRouter in lock-step: one network of each kind built
// from the same config, stepped side by side, state_digest() compared
// every cycle. The reference router keeps no derived state (no work
// masks, no allocated-output mask), so each config below drives one
// branch of the optimized router's mask algebra against the plain scans
// it replaced:
//   * adaptive_escape — the escape-lane filter of the VA option mask;
//   * voq             — the VOQ lane filter;
//   * adaptive + adaptive_faults + recovery + storm kills — draining
//     ports, kVaWait chain resolution through the allocated-output mask
//     and Rule 1 probes behind the per-cycle probe gate;
//   * 4-stage pipeline — the staged switch-traversal register.
// The differential fuzzer compares the same pair over random configs;
// these fixed configs keep the comparison in the tier-1 gate.

#include <gtest/gtest.h>

#include <string>

#include "common/config.hpp"
#include "noc/network.hpp"

namespace ftnoc {
namespace {

// Steps both routers for `cycles` under the invariant monitor (which also
// audits the optimized router's derived masks every cycle) and returns
// the optimized network's stats so each test can check its scenario
// exercised the branch it is about.
StatsCollector run_lockstep(SimConfig cfg, Cycle cycles) {
  cfg.check_invariants = true;
  EXPECT_EQ(cfg.validate(), std::nullopt);
  SimConfig opt_cfg = cfg;
  opt_cfg.use_reference_router = false;
  SimConfig ref_cfg = cfg;
  ref_cfg.use_reference_router = true;
  Network opt(opt_cfg);
  Network ref(ref_cfg);
  if (auto* m = opt.monitor()) m->set_abort_on_violation(false);
  if (auto* m = ref.monitor()) m->set_abort_on_violation(false);
  opt.stats().begin_measurement(0);
  ref.stats().begin_measurement(0);
  for (Cycle c = 0; c < cycles; ++c) {
    opt.step();
    ref.step();
    if (opt.state_digest() != ref.state_digest()) {
      ADD_FAILURE() << "Router diverged from ReferenceRouter at cycle "
                    << opt.now();
      break;
    }
  }
  for (Network* net : {&opt, &ref}) {
    const auto* mon = net->monitor();
    EXPECT_NE(mon, nullptr);
    if (mon != nullptr) {
      EXPECT_EQ(mon->violations(), 0u) << mon->first_violation();
    }
  }
  EXPECT_GT(opt.stats().messages_ejected(), 0u) << "no traffic delivered";
  return opt.stats();
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
  run_lockstep(cfg, 3000);
}

TEST(RouterLockstep, VoqLaneFilter) {
  SimConfig cfg = loaded_4x4();
  cfg.buffer_policy = BufferPolicyKind::kVoq;
  cfg.num_vcs = 4;
  run_lockstep(cfg, 3000);
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
  const StatsCollector s = run_lockstep(cfg, 3000);
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
  const StatsCollector s = run_lockstep(cfg, 3000);
  EXPECT_GT(s.nacks_sent(), 0u) << "no replay through the staged register";
}

}  // namespace
}  // namespace ftnoc
