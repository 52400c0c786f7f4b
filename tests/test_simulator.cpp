// Tests for the simulation driver: warm-up handling, termination, result
// condensation and the energy report.

#include <gtest/gtest.h>

#include <set>

#include "noc/simulator.hpp"
#include "power/energy_model.hpp"

namespace ftnoc {
namespace {

SimConfig quick() {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.injection_rate = 0.1;
  cfg.warmup_messages = 100;
  cfg.total_messages = 600;
  cfg.max_cycles = 100'000;
  return cfg;
}

TEST(Simulator, MeasuredMessagesExcludeWarmup) {
  const SimResults r = run_simulation(quick());
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.measured_messages, 500u);
}

TEST(Simulator, ZeroWarmupMeasuresEverything) {
  SimConfig cfg = quick();
  cfg.warmup_messages = 0;
  const SimResults r = run_simulation(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.measured_messages, 600u);
}

TEST(Simulator, MaxCyclesBoundsRuntime) {
  SimConfig cfg = quick();
  cfg.max_cycles = 50;  // Far too short to eject 600 messages.
  const SimResults r = run_simulation(cfg);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.cycles, 50u);
}

TEST(Simulator, ThroughputMatchesOfferedLoadBelowSaturation) {
  SimConfig cfg = quick();
  cfg.injection_rate = 0.2;
  cfg.total_messages = 4'000;
  cfg.warmup_messages = 800;
  const SimResults r = run_simulation(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.throughput_flits_node_cycle, 0.2, 0.03);
}

TEST(Simulator, EnergyAccountedOnlyAfterWarmup) {
  // A longer warm-up must not inflate energy-per-message: the meter resets
  // at the measurement boundary.
  SimConfig a = quick();
  a.warmup_messages = 100;
  SimConfig b = quick();
  b.warmup_messages = 400;
  const SimResults ra = run_simulation(a);
  const SimResults rb = run_simulation(b);
  ASSERT_TRUE(ra.completed && rb.completed);
  EXPECT_NEAR(ra.energy_per_message_nj, rb.energy_per_message_nj,
              ra.energy_per_message_nj * 0.1);
}

TEST(Simulator, SummaryMentionsKeyMetrics) {
  const SimResults r = run_simulation(quick());
  const std::string s = r.summary();
  EXPECT_NE(s.find("latency="), std::string::npos);
  EXPECT_NE(s.find("energy="), std::string::npos);
  EXPECT_NE(s.find("completed"), std::string::npos);
}

TEST(Simulator, RouterDebugDumpShowsActiveState) {
  SimConfig cfg = quick();
  cfg.injection_rate = 0.0;
  cfg.warmup_messages = 0;
  cfg.total_messages = 1;
  Simulator sim(cfg);
  sim.network().inject_packet(0, 15, 4);
  // Step a few cycles so a wormhole is mid-flight, then dump.
  for (int i = 0; i < 8; ++i) sim.network().step();
  std::string all;
  for (NodeId n = 0; n < 16; ++n) {
    all += sim.network().router_base(n).debug_dump(sim.network().now());
  }
  EXPECT_NE(all.find("pkt"), std::string::npos);
  EXPECT_NE(all.find("ACTIVE"), std::string::npos);
}

TEST(EnergyReport, ListsOnlyChargedEvents) {
  power::EnergyMeter m;
  m.charge(power::EnergyEvent::kLinkTraversal, 10);
  m.charge(power::EnergyEvent::kEccCheck, 5);
  const std::string rep = power::energy_report(m);
  EXPECT_NE(rep.find("link"), std::string::npos);
  EXPECT_NE(rep.find("ecc_check"), std::string::npos);
  EXPECT_EQ(rep.find("crossbar"), std::string::npos);
}

TEST(EnergyReport, SharesSumToRoughlyHundredPercent) {
  power::EnergyMeter m;
  m.charge(power::EnergyEvent::kLinkTraversal, 3);
  m.charge(power::EnergyEvent::kBufferWrite, 7);
  m.charge(power::EnergyEvent::kCrossbarTraversal, 2);
  double total_pj = 0.0;
  for (int i = 0; i < power::kNumEnergyEvents; ++i) {
    total_pj += m.event_pj(static_cast<power::EnergyEvent>(i));
  }
  EXPECT_NEAR(total_pj, m.total_pj(), 1e-9);
}

TEST(EnergyReport, EventNamesAreUniqueAndNamed) {
  std::set<std::string> names;
  for (int i = 0; i < power::kNumEnergyEvents; ++i) {
    const std::string n = power::to_string(static_cast<power::EnergyEvent>(i));
    EXPECT_NE(n, "?");
    EXPECT_TRUE(names.insert(n).second) << n;
  }
}

}  // namespace
}  // namespace ftnoc
