// deadlock_rescue: watch the probing protocol catch a real wormhole
// deadlock and the retransmission buffers break it (paper §3.2).
//
// Builds the canonical 2x2 single-VC scenario: four adaptive streams whose
// minimal paths close a cyclic channel dependency (E->S->W->N). The run
// first demonstrates the wedge with recovery disabled, then replays it
// with the probing detector + absorption recovery enabled, printing the
// protocol milestones as they happen.
//
//   ./deadlock_rescue            # summary
//   FTNOC_DBG=1 ./deadlock_rescue   # plus per-hop probe/activation trace

#include <cstdio>

#include "noc/simulator.hpp"

namespace {

ftnoc::SimConfig scenario(bool recovery) {
  ftnoc::SimConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.num_vcs = 1;
  cfg.vc_buffer_depth = 4;
  cfg.packet_length = 4;
  cfg.routing = ftnoc::RoutingAlgorithm::kMinimalAdaptive;
  cfg.injection_rate = 0.0;
  cfg.warmup_messages = 0;
  cfg.total_messages = 32;
  cfg.max_cycles = 20'000;
  cfg.deadlock.enable_recovery = recovery;
  cfg.deadlock.probe_threshold = 24;
  cfg.deadlock.probe_backoff = 16;
  return cfg;
}

void inject_streams(ftnoc::Network& net) {
  for (int i = 0; i < 8; ++i) {
    net.inject_packet(0, 3, 4);  // E then S
    net.inject_packet(1, 2, 4);  // S then W
    net.inject_packet(3, 0, 4);  // W then N
    net.inject_packet(2, 1, 4);  // N then E
  }
}

}  // namespace

int main() {
  std::printf("2x2 mesh, 1 VC, minimal-adaptive routing, four cyclic "
              "streams of 8 packets each\n\n");

  {
    ftnoc::Simulator sim(scenario(/*recovery=*/false));
    inject_streams(sim.network());
    const ftnoc::SimResults r = sim.run();
    std::printf("[recovery OFF] %llu/32 messages delivered in %llu cycles "
                "-> %s\n",
                static_cast<unsigned long long>(
                    sim.network().stats().messages_ejected()),
                static_cast<unsigned long long>(r.cycles),
                r.completed ? "completed (got lucky)" : "DEADLOCKED");
    if (!r.completed) {
      int blocked = 0;
      for (ftnoc::NodeId n = 0; n < 4; ++n) {
        if (sim.network().router_base(n).tx_buffer_occupancy() > 0) ++blocked;
      }
      std::printf("               %d/4 routers left holding stuck flits\n",
                  blocked);
    }
  }

  {
    ftnoc::Simulator sim(scenario(/*recovery=*/true));
    inject_streams(sim.network());
    ftnoc::Network& net = sim.network();
    net.stats().begin_measurement(0);  // Count protocol events from cycle 0.

    ftnoc::Cycle detected_at = 0;
    ftnoc::Cycle recovered_at = 0;
    while (net.stats().messages_ejected() <
               sim.config().total_messages &&
           net.now() < sim.config().max_cycles) {
      net.step();
      if (detected_at == 0 && net.stats().deadlocks_confirmed() > 0) {
        detected_at = net.now();
        std::printf("[recovery ON ] cycle %5llu: probe returned to its "
                    "origin -> deadlock CONFIRMED\n",
                    static_cast<unsigned long long>(detected_at));
      }
      if (recovered_at == 0 && detected_at != 0) {
        bool any = false;
        for (ftnoc::NodeId n = 0; n < 4; ++n) {
          any = any || net.router_base(n).in_recovery();
        }
        if (!any && net.stats().recoveries_entered() > 0) {
          recovered_at = net.now();
          std::printf("[recovery ON ] cycle %5llu: all routers back to "
                      "normal operation\n",
                      static_cast<unsigned long long>(recovered_at));
        }
      }
    }
    const auto& s = net.stats();
    std::printf("[recovery ON ] %llu/32 messages delivered in %llu cycles\n",
                static_cast<unsigned long long>(s.messages_ejected()),
                static_cast<unsigned long long>(net.now()));
    std::printf("               probes=%llu confirmed=%llu recoveries=%llu "
                "flits_absorbed=%llu\n",
                static_cast<unsigned long long>(s.probes_sent()),
                static_cast<unsigned long long>(s.deadlocks_confirmed()),
                static_cast<unsigned long long>(s.recoveries_entered()),
                static_cast<unsigned long long>(s.flits_absorbed()));
    std::printf("\nSet FTNOC_DBG=1 to trace every probe hop, Rule-2 "
                "forwarding decision and activation.\n");
    return s.messages_ejected() == sim.config().total_messages ? 0 : 2;
  }
}
