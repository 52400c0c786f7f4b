#pragma once
// The assembled on-chip network: routers, inter-router wires, processing
// elements (traffic sources/sinks), the shared fault injector and energy
// meter, and the end-to-end (E2E) retransmission machinery that lives at
// the network edge.

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/fault_injector.hpp"
#include "core/flit.hpp"
#include "core/invariants.hpp"
#include "noc/router.hpp"
#include "noc/stats.hpp"
#include "noc/topology.hpp"
#include "noc/trace.hpp"
#include "noc/traffic.hpp"
#include "noc/wire.hpp"
#include "power/energy_model.hpp"

namespace ftnoc {

/// A processing element: generates packets, injects flits into its router's
/// local port under credit flow control, and (for E2E) buffers sent packets
/// until the destination acknowledges them.
class ProcessingElement {
 public:
  ProcessingElement(NodeId self, const SimConfig& cfg, const Topology& topo,
                    Wire* to_router, StatsCollector* stats, Rng rng);

  /// One cycle: read credits, maybe generate a packet, move packets into
  /// free local-VC lanes, send at most one flit. `router_in_recovery`
  /// back-pressures *new* packets while the attached router runs deadlock
  /// recovery ("no new packets are allowed to enter the transmission
  /// buffers involved in the deadlock recovery", §3.2.1); flits of packets
  /// already in flight keep streaming. Returns true when a flit was driven
  /// onto the PE-to-router wire — the event kernel wakes the router and
  /// marks the wire live.
  bool step(Cycle now, PacketId& next_packet_id, bool router_in_recovery);

  /// Registers the event kernel's due cycle for this PE. step() writes
  /// the next cycle it must run at; enqueue_packet() writes 0 (due now).
  void set_due_slot(Cycle* slot) { due_slot_ = slot; }

  /// Queues a pre-built packet for injection (tests / examples). Front
  /// insertion is used by the E2E retransmission path.
  void enqueue_packet(std::vector<Flit> flits, bool front = false);

  /// E2E: hold a clean copy of the packet until acknowledged.
  void hold_for_e2e(const std::vector<Flit>& flits);
  /// E2E: destination acknowledged — drop the copy.
  void e2e_ack(PacketId pid);
  /// E2E: destination reported corruption — retransmit a clean copy.
  void e2e_nack(PacketId pid);

  std::size_t pending_packets() const { return pending_.size(); }
  std::size_t e2e_buffer_occupancy() const { return e2e_buffer_.size(); }

  /// Free injection credits of one local-VC lane (credit-conservation walk).
  int lane_credits(VcId v) const { return lanes_.at(v).credits; }

  /// Architectural-state hash (scan/event lockstep comparison).
  std::uint64_t state_digest() const;

 private:
  struct Lane {
    bool busy = false;
    int credits;
    std::deque<Flit> flits;
  };

  /// Drives at most one flit onto the PE-to-router wire.
  bool send_flit(Cycle now);
  /// The first cycle after `now` at which a step could change state: next
  /// cycle while a lane can send or a pending packet has a free lane (the
  /// recovery gate may lift any cycle), else the source's next due cycle.
  /// Credits and enqueued packets wake the PE from outside.
  Cycle next_due(Cycle now) const;

  NodeId self_;
  const SimConfig& cfg_;
  Wire* wire_;
  StatsCollector* stats_;
  std::optional<TrafficSource> source_;
  std::deque<std::vector<Flit>> pending_;
  std::vector<Lane> lanes_;
  int send_rotation_ = 0;
  std::unordered_map<PacketId, std::vector<Flit>> e2e_buffer_;
  Cycle* due_slot_ = nullptr;
};

/// Observer invoked for every delivered (clean) message:
/// (dest, tail flit, delivery cycle).
using DeliveryListener =
    std::function<void(NodeId, const Flit&, Cycle)>;

class Network {
 public:
  explicit Network(const SimConfig& cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advances the whole network one clock cycle.
  void step();

  Cycle now() const { return now_; }
  const Topology& topology() const { return topo_; }
  const SimConfig& config() const { return cfg_; }

  StatsCollector& stats() { return stats_; }
  const StatsCollector& stats() const { return stats_; }
  power::EnergyMeter& meter() { return meter_; }
  FaultInjector& faults() { return faults_; }

  /// Router `n` (instrumentation, tests poking kernel internals).
  Router& router_base(NodeId n) { return *routers_.at(n); }
  const Router& router_base(NodeId n) const { return *routers_.at(n); }
  ProcessingElement& pe(NodeId n) { return *pes_.at(n); }

  /// Null unless the config asked for invariant checking (and the hooks
  /// were compiled in).
  InvariantMonitor* monitor() { return monitor_.get(); }

  /// Architectural-state hash over routers, wires and PEs — the per-cycle
  /// comparison point of scan/event lockstep and the pinned trajectories.
  std::uint64_t state_digest() const;

  /// Builds and queues a packet for injection at `src` (tests/examples).
  PacketId inject_packet(NodeId src, NodeId dest, int length);

  /// Schedules a packet trace for replay: each record is injected at its
  /// cycle (on top of any synthetic sources; set injection_rate = 0 for a
  /// pure trace-driven run). Records must be sorted by cycle and at or
  /// after the current cycle.
  void load_trace(std::vector<TraceRecord> records);

  /// True when a trace/workload was loaded (possibly already drained).
  bool trace_loaded() const { return !trace_.empty(); }
  /// True when every loaded record has been released (or dropped).
  bool trace_drained() const { return trace_next_ >= trace_.size(); }

  /// Per-directed-link counters (cfg.link_stats only; empty otherwise).
  /// Index = node * 4 + direction, matching link_wires_.
  const std::vector<std::uint64_t>& link_fwd_counts() const {
    return link_fwd_;
  }
  const std::vector<std::uint64_t>& link_stall_counts() const {
    return link_stall_;
  }

  void set_delivery_listener(DeliveryListener fn) {
    delivery_listener_ = std::move(fn);
  }

  /// Network-wide buffer occupancy fractions this instant (Figures 8/9).
  double tx_buffer_fraction() const;
  double rtx_buffer_fraction() const;

 private:
  void on_eject(NodeId dest, const Flit& f, Cycle now);
  void fire_due_events();
  /// Releases every trace record due this cycle into its source PE's
  /// queue. Records whose source router is hard-dead are counted as
  /// dead-source drops instead of being queued at a PE that can never
  /// drain (the packet would otherwise silently wedge the drain
  /// condition). Shared by both kernels so the schedules coincide.
  void release_due_trace();
  /// Accumulates the per-link forwarded/stalled counters from the settled
  /// post-tick wire state (cfg_.link_stats only, measurement window only).
  /// Reading architectural state that is byte-identical across kernels and
  /// router implementations keeps the counters identical too.
  void accumulate_link_stats();
  int hop_distance(NodeId a, NodeId b) const;
  /// End-of-cycle structural walks: per-router local checks, the
  /// network-wide flit-conservation ledger and the per-link credit sums.
  void run_invariant_walks();

  // --- Event-queue kernel (DESIGN.md §4.10) -------------------------------
  /// The classic kernel: step every live PE, every router and tick every
  /// wire each cycle. Used under the `kernel=scan` override.
  void step_scan();
  /// The event kernel: routers are stepped only when scheduled (wire
  /// traffic written toward them last cycle, a self-requested re-tick, or
  /// an exact timer), PEs only when due (pe_due_); only live wires are
  /// ticked. Byte-identical to step_scan() — the golden digests and the
  /// fuzz harness pin it.
  void step_event();
  /// Schedules router `n` to be stepped at cycle `due` (> now_). Within
  /// the wheel horizon this sets a bit in the due slot's node mask;
  /// farther timers spill to the sorted overflow map.
  void schedule(NodeId n, Cycle due);
  /// Adds a wire to the tick list (dedup'd); it stays until it settles.
  void mark_wire_live(std::uint32_t wid);
  /// Kills link (`n`, `dir`) unless the kill would partition the live
  /// mesh: fails it in the topology (bumping the route epoch), counts it
  /// (escalation or storm), and starts draining both endpoint routers.
  /// Same-cycle kills compose sequentially — the topology already holds
  /// every previously accepted kill when the next veto is evaluated, so a
  /// batch of requests that are individually safe but jointly partitioning
  /// is trimmed to a safe prefix (tests/test_fault_model.cpp pins this).
  /// Returns whether the kill was accepted.
  bool try_kill_link(NodeId n, Direction dir, bool storm);
  /// Fires every cfg_.storm_kills entry due by now_ (single cursor; both
  /// kernels call this every cycle, so the timelines coincide exactly).
  void fire_storm_kills();
  std::uint32_t local_wire_id(NodeId n) const {
    return static_cast<std::uint32_t>(link_wires_.size()) +
           static_cast<std::uint32_t>(n);
  }
  Wire* wire_by_id(std::uint32_t wid) {
    const auto nlinks = static_cast<std::uint32_t>(link_wires_.size());
    return wid < nlinks ? link_wires_[wid].get()
                        : local_wires_[wid - nlinks].get();
  }

  struct EdgeEvent {
    NodeId target;      ///< PE that receives the control message (source).
    PacketId pid;
    bool is_nack;       ///< NACK = retransmit request; otherwise ACK.
  };

  SimConfig cfg_;
  Topology topo_;
  StatsCollector stats_;
  power::EnergyMeter meter_;
  Rng root_rng_;
  FaultInjector faults_;
  Cycle now_ = 0;
  PacketId next_packet_id_ = 1;

  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<ProcessingElement>> pes_;
  std::unique_ptr<InvariantMonitor> monitor_;
  // Directed inter-router wires: index = node * 4 + direction.
  std::vector<std::unique_ptr<Wire>> link_wires_;
  // PE -> router wires (local injection channel), one per node.
  std::vector<std::unique_ptr<Wire>> local_wires_;

  // Per-destination, per-packet delivery record maintained between head
  // and tail ejection: corruption flag + flit count (a lost NACK or
  // dropped flit shows up as an incomplete message).
  struct EjectRecord {
    bool bad = false;
    int flits = 0;
  };
  std::vector<std::unordered_map<PacketId, EjectRecord>> eject_state_;

  // Delayed E2E control messages (ACK/NACK back to the source PE).
  std::multimap<Cycle, EdgeEvent> edge_events_;

  // Trace replay: sorted records not yet injected.
  std::vector<TraceRecord> trace_;
  std::size_t trace_next_ = 0;

  // Per-link analytics (cfg.link_stats): flits forwarded / stall cycles
  // per directed wire (the receiver is the topology's neighbour).
  std::vector<std::uint64_t> link_fwd_;
  std::vector<std::uint64_t> link_stall_;

  // Fault-storm timeline (sorted by cycle; validate() enforces): next
  // cfg_.storm_kills entry to fire. A vetoed kill is skipped, not retried.
  std::size_t next_storm_kill_ = 0;

  DeliveryListener delivery_listener_;
  /// Chip-wide wired-OR "deadlock recovery in progress" line (sampled at
  /// the end of each cycle; gates new-packet injection the next cycle).
  bool recovery_line_ = false;

  // --- Event-queue kernel state -------------------------------------------
  /// True when this network runs the per-cycle full scan (the
  /// `kernel=scan` override).
  bool scan_kernel_ = false;
  static constexpr std::size_t kWheelSize = 256;  // Power of two.
  /// Bucket wheel: slot (cycle & 255) holds a node bitmask of routers due
  /// that cycle. Spurious entries are harmless (a quiescent step is a
  /// pinned no-op), so duplicate schedules need no dedup.
  std::array<std::vector<std::uint64_t>, kWheelSize> wheel_;
  /// Timers beyond the wheel horizon, spilled back in as now_ approaches.
  std::map<Cycle, std::vector<NodeId>> far_due_;
  /// Routers stepped this cycle, ascending — feeds the escalation poll and
  /// the recovery-line OR (both order- or membership-sensitive).
  std::vector<NodeId> stepped_;
  /// Wires with signals in flight: id < link_wires_.size() is a link wire,
  /// else a local (PE) wire. Mask is the dedup bitset for the list.
  std::vector<std::uint32_t> live_wires_;
  std::vector<std::uint64_t> live_wire_mask_;
  /// Per node, the next cycle its PE must be stepped (DESIGN.md §4.10):
  /// written by the PE itself after each step and on enqueue, lowered to
  /// next cycle by a credit its router returns. Scanned in node order,
  /// which keeps the scan's packet-id assignment order.
  std::vector<Cycle> pe_due_;
  /// Incrementally maintained buffer-occupancy totals (the sampling scan
  /// only stepped routers can change their term). Slot totals are constant
  /// after construction and cached on first use.
  std::vector<int> tx_occ_cache_;
  std::vector<int> rtx_occ_cache_;
  long long tx_occ_total_ = 0;
  long long rtx_occ_total_ = 0;
  long long tx_slots_total_ = -1;
  long long rtx_slots_total_ = -1;
};

}  // namespace ftnoc
