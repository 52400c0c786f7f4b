#pragma once
// Network-wide metric collection. The simulator warms the network up first
// (paper §2.2: 100k warm-up messages out of 300k); measurement begins when
// the warm-up ejection count is reached and all per-run metrics reported by
// the benches come from the measurement window only.

#include <cstdint>

#include "common/stats_util.hpp"
#include "common/types.hpp"

namespace ftnoc {

/// When a counter counts: inside the measurement window only, or over the
/// whole run (delivery accounting, like packets_created).
enum class CounterWindow : std::uint8_t { kMeasured, kWholeRun };

/// Which configs carry a counter's JSONL column. kAlways columns are part
/// of every result record (and of campaign replica lines); the others are
/// appended after them only when the config can produce the event, so
/// configs without it keep their exact pre-existing key set.
enum class CounterGate : std::uint8_t {
  kAlways,
  kPermanentFaults,  ///< SimConfig::has_permanent_faults().
  kStorm,            ///< A non-empty storm_kills schedule.
  kWorkload,         ///< SimConfig::has_workload().
};

// The event counters, one row each, in JSONL column order:
//   X(name, on_* event, window, JSONL gate)
// A row generates the collector's field, its `on_*` bump and accessor, the
// SimResults field, its JSONL column and its campaign-journal round trip
// (see kEventCounters). Adding a counter is adding a row.
#define FTNOC_EVENT_COUNTERS(X)                                              \
  /* HBH link protection: SEC in place, multi-bit retransmissions. */        \
  X(link_single_corrected, on_link_single_corrected, kMeasured, kAlways)     \
  X(link_retransmission_events, on_link_retransmission_event, kMeasured,     \
    kAlways)                                                                 \
  X(link_flits_retransmitted, on_flits_retransmitted, kMeasured, kAlways)    \
  /* Detected-uncorrectable flits dropped at a receiver (the NACK drop      \
     window plus drops that were never replayed). */                         \
  X(flits_dropped, on_flit_dropped, kMeasured, kAlways)                      \
  X(nacks_sent, on_nack_sent, kMeasured, kAlways)                            \
  /* Allocation Comparator recoveries and unprotected logic upsets. */       \
  X(rt_errors_recovered, on_rt_error_recovered, kMeasured, kAlways)          \
  X(va_errors_recovered, on_va_error_recovered, kMeasured, kAlways)          \
  X(sa_errors_recovered, on_sa_error_recovered, kMeasured, kAlways)          \
  X(unprotected_errors, on_unprotected_error, kMeasured, kAlways)            \
  X(corrupted_delivered, on_corrupted_delivery, kMeasured, kAlways)          \
  X(e2e_retransmits, on_e2e_retransmit, kMeasured, kAlways)                  \
  X(rtx_errors_corrected, on_rtx_error_corrected, kMeasured, kAlways)        \
  X(handshake_errors_corrected, on_handshake_error_corrected, kMeasured,     \
    kAlways)                                                                 \
  /* A packet detoured non-minimally around a hard-failed link. */           \
  X(hard_fault_reroutes, on_hard_fault_reroute, kMeasured, kAlways)          \
  /* Deadlock detection and recovery. */                                     \
  X(probes_sent, on_probe_sent, kMeasured, kAlways)                          \
  X(probes_discarded, on_probe_discarded, kMeasured, kAlways)                \
  X(deadlocks_confirmed, on_deadlock_confirmed, kMeasured, kAlways)          \
  X(recoveries_entered, on_recovery_entered, kMeasured, kAlways)             \
  X(recoveries_exited, on_recovery_exited, kMeasured, kAlways)               \
  X(fallback_recoveries, on_fallback_recovery, kMeasured, kAlways)           \
  X(flits_absorbed, on_flit_absorbed, kMeasured, kAlways)                    \
  /* A waiting packet whose chosen next hop died was sent back to RT. */     \
  X(packets_rerouted, on_packet_rerouted, kWholeRun, kPermanentFaults)       \
  /* A packet was dropped because no live path to its destination exists. */ \
  X(unreachable_drops, on_unreachable_drop, kWholeRun, kPermanentFaults)     \
  /* A flaky link crossed the escalation threshold and was declared dead. */ \
  X(links_escalated, on_link_escalated, kWholeRun, kPermanentFaults)         \
  /* A fault-storm kill fired (accepted past the partition veto). */         \
  X(links_storm_killed, on_storm_link_killed, kWholeRun, kStorm)             \
  /* A trace/workload record whose source router is hard-dead was dropped   \
     at release (never created, so not counted in packets_created). */       \
  X(dead_source_drops, on_dead_source_drop, kWholeRun, kWorkload)

/// One value per counter row; the collector's storage and the counter half
/// of SimResults.
struct EventCounts {
#define FTNOC_X(name, event, window, gate) std::uint64_t name = 0;
  FTNOC_EVENT_COUNTERS(FTNOC_X)
#undef FTNOC_X
};

/// A counter row as data, for the code that walks every counter.
struct EventCounter {
  const char* name;
  std::uint64_t EventCounts::*field;
  CounterWindow window;
  CounterGate gate;
};

inline constexpr EventCounter kEventCounters[] = {
#define FTNOC_X(name, event, window, gate) \
  {#name, &EventCounts::name, CounterWindow::window, CounterGate::gate},
    FTNOC_EVENT_COUNTERS(FTNOC_X)
#undef FTNOC_X
};

class StatsCollector {
 public:
  StatsCollector()
      : latency_hist_(/*bucket_width=*/1.0, /*num_buckets=*/4096) {}
  /// Starts the measurement window (called once, at the warm-up boundary).
  void begin_measurement(Cycle now) {
    measuring_ = true;
    measure_start_ = now;
  }
  bool measuring() const { return measuring_; }
  Cycle measure_start() const { return measure_start_; }

  // --- Traffic lifecycle -------------------------------------------------
  void on_packet_created() { ++packets_created_; }
  /// `birth` = packet generation time (includes source queueing);
  /// `inject` = first header injection into the network (the paper's
  /// message-latency reference point; 0 if unknown).
  void on_message_ejected(Cycle now, Cycle birth, Cycle inject,
                          bool corrupted) {
    ++messages_ejected_;
    if (!measuring_) return;
    ++measured_messages_;
    const double lat = static_cast<double>(now - (inject ? inject : birth));
    latency_.add(lat);
    latency_hist_.add(lat);
    total_latency_.add(static_cast<double>(now - birth));
    if (corrupted) on_corrupted_delivery();
  }

  // --- Event counters ------------------------------------------------------
  // One bump per row; kMeasured rows count only inside the measurement
  // window (callers don't need to check).
#define FTNOC_X(name, event, window, gate)                       \
  void event(std::uint64_t n = 1) {                              \
    if (CounterWindow::window == CounterWindow::kWholeRun ||     \
        measuring_) {                                            \
      counts_.name += n;                                         \
    }                                                            \
  }
  FTNOC_EVENT_COUNTERS(FTNOC_X)
#undef FTNOC_X

  void on_link_retransmission(std::uint64_t flits) {
    on_link_retransmission_event();
    on_flits_retransmitted(flits);
  }

  // --- Per-cycle sampling --------------------------------------------------
  /// `tx_frac` / `rtx_frac`: network-wide occupied-slot fractions this cycle.
  void sample_buffers(double tx_frac, double rtx_frac) {
    if (!measuring_) return;
    tx_util_.add(tx_frac);
    rtx_util_.add(rtx_frac);
  }

  // --- Accessors ------------------------------------------------------------
  std::uint64_t packets_created() const { return packets_created_; }
  std::uint64_t messages_ejected() const { return messages_ejected_; }
  std::uint64_t measured_messages() const { return measured_messages_; }
  const RunningStat& latency() const { return latency_; }
  const RunningStat& total_latency() const { return total_latency_; }
  /// Message-latency distribution (1-cycle buckets, for tail quantiles).
  const Histogram& latency_histogram() const { return latency_hist_; }
  const RunningStat& tx_buffer_utilization() const { return tx_util_; }
  const RunningStat& rtx_buffer_utilization() const { return rtx_util_; }

  const EventCounts& counts() const { return counts_; }
#define FTNOC_X(name, event, window, gate) \
  std::uint64_t name() const { return counts_.name; }
  FTNOC_EVENT_COUNTERS(FTNOC_X)
#undef FTNOC_X

  /// Total corrected link errors: SEC singles + retransmitted multi-bit
  /// flit errors (what Figure 13(a)'s LINK-HBH series counts).
  std::uint64_t link_errors_corrected() const {
    return counts_.link_single_corrected + counts_.link_retransmission_events;
  }

 private:
  bool measuring_ = false;
  Cycle measure_start_ = 0;

  std::uint64_t packets_created_ = 0;
  std::uint64_t messages_ejected_ = 0;
  std::uint64_t measured_messages_ = 0;
  RunningStat latency_;
  RunningStat total_latency_;
  Histogram latency_hist_;
  RunningStat tx_util_;
  RunningStat rtx_util_;

  EventCounts counts_;
};

}  // namespace ftnoc
