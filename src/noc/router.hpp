#pragma once
// The pipelined virtual-channel wormhole router (Figure 1) with all of the
// paper's fault-tolerance machinery attached:
//
//  * per-output-VC retransmission barrel shifters + NACK-driven hop-by-hop
//    (HBH) flit retransmission (§3.1, Figure 4);
//  * the Allocation Comparator checking VA/SA state each cycle (§4,
//    Figure 12), with logic-fault injection into RT/VA/SA;
//  * the probing deadlock detector and retransmission-buffer-based
//    recovery (§3.2, Figures 10/11).
//
// Pipeline model. Router phases execute once per cycle; flits only become
// eligible for a stage the cycle after the previous stage handled them,
// which reproduces the per-hop latency of an n-stage router + 1-cycle link:
//
//   stages=3 (paper's default): BW -> RT+VA split as RT | VA | SA+ST
//   stages=2: RT+VA same cycle (look-ahead + speculation) | SA+ST
//   stages=1: RT+VA+SA+ST in one cycle
//   stages=4: RT | VA | SA | ST (output staging register)
//
// Routers communicate exclusively through 1-cycle Wire channels, so the
// sequential update order of routers within a cycle is unobservable.

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/inline_vec.hpp"
#include "common/types.hpp"
#include "core/allocation_comparator.hpp"
#include "core/buffer_policy.hpp"
#include "core/deadlock.hpp"
#include "core/error_check_unit.hpp"
#include "core/fault_injector.hpp"
#include "core/flit.hpp"
#include "core/invariants.hpp"
#include "core/retransmission_buffer.hpp"
#include "noc/arbiter.hpp"
#include "noc/channel.hpp"
#include "noc/flit_store.hpp"
#include "noc/routing.hpp"
#include "noc/stats.hpp"
#include "noc/topology.hpp"
#include "noc/wire.hpp"
#include "power/energy_model.hpp"

namespace ftnoc {

class Router {
 public:
  Router(NodeId id, const SimConfig& cfg, const Topology& topo,
         FaultInjector* faults, power::EnergyMeter* meter,
         StatsCollector* stats);
  // Connected wires point into this object's signal arrays.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Wires port `p`: `in` carries the neighbour's (or PE's) signals toward
  /// this router, `out` carries this router's signals away. Either may be
  /// nullptr for a nonexistent link (mesh edge).
  void connect(PortId p, Wire* in, Wire* out);

  void set_eject_fn(EjectFn fn) { eject_ = std::move(fn); }

  /// Marks a link port as hard-failed (pre-programmed into the VA's
  /// link-state table, §4.2). The VA never allocates toward a dead port;
  /// adaptive routing detours around it.
  void fail_link(PortId p);

  /// Advances the router one clock cycle.
  void step(Cycle now);

  NodeId id() const { return id_; }

  // --- Introspection (stats sampling, tests) -----------------------------
  int tx_buffer_occupancy() const;
  int tx_buffer_slots() const;
  int rtx_buffer_occupancy() const;
  int rtx_buffer_slots() const;
  bool in_recovery() const { return agent_.in_recovery(); }
  const DeadlockAgent& deadlock_agent() const { return agent_; }
  /// Live entries in the own-probe route map (bounded-memory test).
  std::size_t probe_route_entries() const { return own_probe_route_.size(); }
  /// Whether the next step() would be a no-op (idle fast path, tests).
  bool quiescent() const;

  /// Occupancy of one input VC buffer (tests).
  int input_buffer_size(PortId p, VcId v) const;
  /// Whether an input VC currently holds an active wormhole (tests).
  bool input_vc_active(PortId p, VcId v) const;
  /// Human-readable state snapshot (debugging and trace examples).
  std::string debug_dump(Cycle now) const;

  /// Hash (digest::Mixer), in a fixed traversal order, of every piece of
  /// architectural state that determines future behaviour: VC states,
  /// buffered flits, credits, retransmission barrels, staged registers,
  /// arbiter rotations, deadlock-agent state. Derived caches (work masks,
  /// occupancy counters) are left out — check_local_invariants() audits
  /// them against this state instead — so scan/event lockstep and the
  /// pinned trajectories compare behaviour, not bookkeeping.
  std::uint64_t state_digest() const;

  // --- Invariant monitor hooks (DESIGN.md §4.8) ---------------------------
  void set_monitor(InvariantMonitor* mon) { mon_ = mon; }
  /// Recomputes the derived state (work masks, alloc_ogs_, tx_occ_,
  /// staged_count_, barrel summaries) from scratch and reports any
  /// disagreement, and checks that no waiting head or unabsorbed deadlock
  /// waiter is bound to a dead or draining port.
  void check_local_invariants(Cycle now);
  /// Live flit instances held inside this router for the network-wide
  /// conservation ledger: input buffers + staged ST registers (minus
  /// replay shadows) + retransmission-barrel pending regions.
  long long live_flit_count() const;
  /// Sender-side credit instances for directed link (`p`, `v`): the free
  /// credit counter plus credits bound to staged or rolled-back flits.
  int held_credits(PortId p, VcId v) const;
  /// The sender-side credit budget the conservation walk checks (`p`, `v`)
  /// against: vc_buffer_depth normally, and under the DAMQ policy the VC's
  /// reserve plus its currently borrowed shared slots (DESIGN.md §4.11).
  int credit_budget(PortId p, VcId v) const;

  // --- Permanent-fault escalation (DESIGN.md §4.9) ------------------------
  /// True once port `p` has been marked hard-failed (static config or a
  /// completed runtime escalation). The invariant monitor's dead-link walk
  /// keys off this rather than the topology so a draining link is not a
  /// false positive.
  bool link_failed(PortId p) const { return mask_has(dead_ports_, p); }
  /// Ports whose uncorrectable-error streak crossed the escalation
  /// threshold since the last poll, as a bitmask; clears the pending set.
  std::uint8_t take_escalation_requests() {
    const std::uint8_t r = escalation_requests_;
    escalation_requests_ = 0;
    return r;
  }
  /// Begins draining link port `p`: no new allocations toward it; once the
  /// port falls idle the router marks it hard-failed. Re-homes packets
  /// still waiting on it (they re-route, counted as packets_rerouted).
  void begin_link_drain(PortId p, Cycle now);
  /// Test seam modelling a BIST/wearout monitor flagging port `p` as
  /// failing: queues it for the next escalation poll exactly as a crossed
  /// uncorrectable-error streak would. Lets tests raise several same-cycle
  /// requests and pin the network's sequential partition-veto semantics.
  void request_escalation(PortId p) {
    escalation_requests_ |= port_bit(p);
  }

  // --- Event-driven scheduling (DESIGN.md §4.10) --------------------------
  /// Wake bookkeeping of the step() that just ran: which wires were
  /// driven, whether any retained state demands a self-tick next cycle,
  /// and the exact own-probe GC deadline when that is the *only* thing
  /// left. Consuming resets the wrote masks for the next step.
  WakeInfo take_wake_info();

 private:
  // --- Per-VC state -------------------------------------------------------
  enum class VcState : std::uint8_t {
    kRouting,  ///< No wormhole; route the next head flit that shows up.
    kVaWait,   ///< Head routed; waiting for an output VC.
    kActive,   ///< Wormhole open; flits stream through SA.
    kVaReserved, ///< Deadlock recovery: flits absorbed into the output VC's
                 ///< retransmission buffer; ownership transfers when the
                 ///< current owner's tail retires (deferred allocation).
    kDraining, ///< Unprotected-allocation casualty: discard until tail.
  };

  // SoA layout (DESIGN.md §4.10): the former per-VC structs are split by
  // role into parallel gid-indexed arrays — flit storage in one contiguous
  // slab (`in_flit_slab_`, viewed through FlitRing), per-input-VC
  // allocation metadata in `inputs_`, per-output-VC allocation metadata in
  // `outputs_` (small POD, hot), and the big retransmission barrels in
  // `out_rtx_` (cold — touched only through the out_work_ mask). The scan
  // loops walk these arrays in ascending-gid order, which is what the
  // golden digests pin.
  struct InputVc {
    FlitBuf buf;  ///< View into in_flit_slab_ (or the port's DamQ pool).
    VcState state = VcState::kRouting;
    PortMask candidates = 0;
    PortId out_port = kInvalidPort;
    VcId out_vc = kInvalidVc;
    Cycle last_advance = 0;
    Cycle stall_until = 0;   ///< Logic-error recovery penalty.
    Cycle state_since = 0;
    /// Mirror of buf.front().arrived_cycle (valid while buf is non-empty),
    /// kept by the push/pop sites — the SA nomination scan's same-cycle
    /// check then stays off the flit slab.
    Cycle front_arrived = 0;
    void sync_front_arrived() {
      if (!buf.empty()) front_arrived = buf.front().arrived_cycle;
    }
  };

  struct OutputVc {
    PacketId owner_pid = 0;
    /// Deadlock recovery: the input VC queued to inherit this output VC
    /// when the current owner releases it (deferred VA).
    PacketId waiter_pid = 0;
    int credits = 0;
    std::uint16_t owner_gid = 0;
    std::uint16_t waiter_gid = 0;
    bool allocated = false;
    bool tail_sent = false;
    bool has_waiter = false;
  };

  struct PendingNack {
    PortId port;
    VcId vc;
    Cycle send_at;
  };

  struct OutboxItem {
    PortId port;
    bool is_probe;
    ProbeSignal probe;
    ActivationSignal activation;
  };

  /// Forward port (and mint time, for GC) of a probe this router launched.
  struct ProbeRoute {
    PortId port = kInvalidPort;
    Cycle sent_at = 0;
  };

  // --- Phases --------------------------------------------------------------
  void phase_maintenance(Cycle now);
  void phase_receive(Cycle now);
  void phase_replay_and_switch(Cycle now);
  void phase_va(Cycle now);
  void phase_rt(Cycle now);
  void phase_deadlock(Cycle now);

  // --- Helpers ---------------------------------------------------------------
  InputVc& ivc(PortId p, VcId v) { return inputs_[gid(p, v)]; }
  const InputVc& ivc(PortId p, VcId v) const { return inputs_[gid(p, v)]; }
  OutputVc& ovc(PortId p, VcId v) { return outputs_[gid(p, v)]; }
  const OutputVc& ovc(PortId p, VcId v) const { return outputs_[gid(p, v)]; }
  int gid(PortId p, VcId v) const { return p * num_vcs_ + v; }
  /// Retransmission barrel of output gid `og` (engaged on link ports only).
  std::optional<RetransmissionBuffer>& orx(int og) { return out_rtx_[og]; }
  const std::optional<RetransmissionBuffer>& orx(int og) const {
    return out_rtx_[og];
  }

  // --- Work lists --------------------------------------------------------
  // One bit per (port, VC) gid; P*V <= 30 so a 32-bit mask covers both
  // sides (static_asserted below through kMaxVcs, which config validation
  // enforces). A clear input bit proves the VC is empty and idle-routing; a
  // clear output bit proves the VC is unallocated, waiterless and has an
  // empty retransmission barrel. Every phase iterates set bits in
  // ascending gid order — the same order as the full scans they replace —
  // so arbiter, RNG and energy-charge sequences are bit-for-bit identical.
  void update_input_work(int g) {
    const InputVc& vc = inputs_[static_cast<std::size_t>(g)];
    const bool busy = !vc.buf.empty() || vc.state != VcState::kRouting;
    in_work_ = busy ? (in_work_ | (1u << g)) : (in_work_ & ~(1u << g));
  }
  static_assert(kNumDirections * kMaxVcs <= 32,
                "gid masks are 32-bit: raise kMaxVcs only with wider masks");
  void update_output_work(int og) {
    const OutputVc& out = outputs_[static_cast<std::size_t>(og)];
    const auto& rtx = out_rtx_[static_cast<std::size_t>(og)];
    const bool busy = out.allocated || out.has_waiter ||
                      (rtx && rtx->occupancy() > 0);
    out_work_ = busy ? (out_work_ | (1u << og)) : (out_work_ & ~(1u << og));
  }

  /// Link ports with a neighbour, not hard-failed and not draining toward
  /// escalation: the gate for *new* commitments (VA requests, deadlock
  /// waiters, RT-fault misdirections). In-flight wormholes keep using a
  /// draining port until their tail.
  PortMask allocatable_ports() const {
    return nbr_ports_ & ~(dead_ports_ | draining_);
  }
  bool port_allocatable(PortId p) const {
    return mask_has(allocatable_ports(), p);
  }
  /// Every gid of every port in `ports`. VC 0's gids are V bits apart, so
  /// multiplying them by V ones fills each port's block without carries.
  std::uint32_t port_gids(unsigned ports) const {
    std::uint32_t vc0 = 0;
    for (; ports != 0; ports &= ports - 1) {
      vc0 |= 1u << gid(static_cast<PortId>(std::countr_zero(ports)), 0);
    }
    return vc0 * ((1u << num_vcs_) - 1u);
  }
  /// Sets output gid `og`'s `allocated` flag and its alloc_ogs_ bit — the
  /// only writer of either, so the mask cannot drift from the flags.
  void set_allocated(int og, bool on) {
    outputs_[static_cast<std::size_t>(og)].allocated = on;
    alloc_ogs_ = on ? (alloc_ogs_ | (1u << og)) : (alloc_ogs_ & ~(1u << og));
  }
  /// Under damq, whether output VC (`p`, `v`) can source a credit for one
  /// more flit: a free reserved credit or a free slot in the port's shared
  /// region (DESIGN.md §4.11). Under other policies, plain credits > 0.
  bool can_consume_credit(PortId p, VcId v) const {
    return ovc(p, v).credits > 0 || (damq_ && shared_credits_[p] > 0);
  }
  /// The VC class a VOQ packet is pinned to, or -1 outside voq.
  int voq_lane(const Flit& f) const {
    return voq_ ? voq_class(f.dest, cfg_.mesh_width, num_vcs_) : -1;
  }
  void accept_flit(PortId p, const Flit& f0, Cycle now);
  /// `f` may alias the wire channel's current slot (consumed in place by
  /// the caller after this returns); it is mutated by link-fault injection.
  void handle_incoming_flit(PortId p, Flit& f, Cycle now);
  void handle_probe(PortId p, const ProbeSignal& probe, Cycle now);
  void handle_activation(const ActivationSignal& act, Cycle now);
  /// Sends one flit on an output link: consumes the credit (unless it is a
  /// replay that already holds one), records the NACK-window copy in the
  /// retransmission barrel, and drives the wire. `corrupt_on_wire` models
  /// an in-crossbar upset: the barrel copy is taken before the crossbar,
  /// so only the transmitted copy is wrecked (otherwise a replay would
  /// resend the same corrupt word forever — the §4.5 hazard).
  void transmit(PortId out_port, VcId out_vc, Flit f, Cycle now,
                bool consume_credit, bool corrupt_on_wire = false);
  /// Final bookkeeping at the moment a flit actually leaves on the wires:
  /// tail tracking and the retransmission-barrel copy (with the §4.5
  /// stored-copy upset process). Runs inside transmit() for 1-3-stage
  /// routers and at the staged-register flush for 4-stage ones.
  void finalize_transmission(PortId o, VcId v, const Flit& f, Cycle now);
  void eject(const Flit& f, PortId in_port, VcId in_vc, Cycle now);
  void send_credit(PortId p, VcId v);
  void release_input_after_tail(PortId p, VcId v, Cycle now);
  void maybe_release_outputs(Cycle now);
  /// Online reconfiguration (DESIGN.md §4.12): when the topology's route
  /// epoch has moved since this router last looked, recompute every
  /// kVaWait candidate set against the rebuilt distance tables. A set that
  /// collapses to empty sends the VC back to kRouting, where phase_rt
  /// re-routes or drops it with the usual unreachable accounting.
  void rehome_stale_routes(Cycle now);
  bool vc_blocked(const InputVc& vc, Cycle now) const;
  /// Next link of a blocked dependency chain through an input VC.
  std::optional<std::pair<PortId, VcId>> resolve_chain(const InputVc& vc) const;
  void run_ac_on_va(std::size_t new_entry, Cycle now);
  void enter_recovery(Cycle now);
  void queue_control(PortId port, const ProbeSignal& p);
  void queue_control(PortId port, const ActivationSignal& a);
  void flush_outbox();
  void charge(power::EnergyEvent e, std::uint64_t times = 1);

  // Input-side VA request: the output gid input gid `g` asks for, or -1.
  // Escape-VC policy depends on how the packet arrived (`g`'s port and VC).
  int pick_va_request(const InputVc& vc, int g, int rotation) const;

  // RT fault handling; returns the (possibly corrupted) candidate mask and
  // applies stalls/penalties for emulated downstream detection.
  PortMask apply_rt_fault(InputVc& vc, PortMask correct, Cycle now);

  // --- Immutable configuration ------------------------------------------
  NodeId id_;
  const SimConfig& cfg_;
  const Topology& topo_;
  int num_vcs_;
  int num_ports_ = kNumDirections;

  FaultInjector* faults_;
  // Per-process upset draws with rate <= 0 return false without consuming
  // RNG state (Rng::bernoulli short-circuits), so skipping the call when
  // the rate is zero is behaviour-preserving — these flags hoist that
  // rate check out of the per-event hot paths.
  bool f_rt_live_ = false;
  bool f_va_live_ = false;
  bool f_sa_live_ = false;
  bool f_rtx_live_ = false;
  bool f_hs_live_ = false;
  /// Link ports with a geometric neighbour (from the topology table).
  PortMask nbr_ports_ = 0;
  power::EnergyMeter* meter_;
  StatsCollector* stats_;
  EjectFn eject_;
  InvariantMonitor* mon_ = nullptr;  ///< Null unless check_invariants.

  // --- Wiring ---------------------------------------------------------------
  std::array<Wire*, kNumDirections> in_wires_{};
  std::array<Wire*, kNumDirections> out_wires_{};
  /// Consumer-side wire signal summaries (Wire::kCur* bits), written by
  /// Wire::tick through registered slots: in_sig_[p] mirrors
  /// in_wires_[p]->cur_mask, out_sig_[p] mirrors out_wires_[p]->cur_mask.
  /// Both padded to 8 so the quiescent check reads each as one word.
  alignas(8) std::array<std::uint8_t, 8> in_sig_{};
  alignas(8) std::array<std::uint8_t, 8> out_sig_{};

  // --- State -----------------------------------------------------------------
  /// Gid-major contiguous flit storage for every input VC (stride
  /// vc_buffer_depth); inputs_[g].buf is a FlitRing view into it. Sized
  /// once in the constructor and never reallocated.
  std::vector<Flit> in_flit_slab_;
  std::vector<InputVc> inputs_;    // P*V
  std::vector<OutputVc> outputs_;  // P*V (hot allocation metadata)
  /// DAMQ receiver-side storage: one shared pool per link input port
  /// (engaged only under buffer_policy=damq; the local port keeps its
  /// private slab rings). inputs_[g].buf routes into these via use_pool.
  std::array<DamqPool<Flit>, kNumDirections> in_pools_;
  // DAMQ sender-side shared-credit state (DESIGN.md §4.11). All-zero and
  // untouched under other policies.
  bool damq_ = false;
  bool voq_ = false;
  std::vector<int> shared_credits_;  ///< Per port: free shared credits.
  std::vector<int> shared_held_;     ///< Per output gid: borrowed shared.
  /// P*V retransmission barrels, split out of OutputVc so the hot scans
  /// walk small PODs; engaged on link-port gids only.
  std::vector<std::optional<RetransmissionBuffer>> out_rtx_;
  std::vector<Cycle> drop_until_;  // P*V: HBH drop window per input VC.
  ErrorCheckUnit checker_;
  AllocationComparator ac_;
  DeadlockAgent agent_;

  ArbiterBank va_arbs_;     // one per output VC, over P*V input gids
  ArbiterBank sa_in_arbs_;  // one per input port, over V VCs
  ArbiterBank sa_out_arbs_; // one per output port, over P input ports
  ArbiterBank replay_arbs_; // one per output port, over V VCs
  std::vector<int> va_rotation_;  // per input gid: rotating VC preference

  std::array<bool, kNumDirections> port_busy_{};     // per-cycle ST usage
  PortMask dead_ports_ = 0;  // hard faults (4.2)

  // --- Runtime link escalation (§4.9) -------------------------------------
  /// Ports draining toward hard-failure: no new allocations; once the
  /// port's output VCs and staged register fall idle it becomes dead.
  std::uint8_t draining_ = 0;
  /// Consecutive uncorrectable receive errors per input port; a streak of
  /// cfg_.faults.link_escalation_threshold raises an escalation request.
  std::array<std::uint32_t, kNumDirections> uncorrectable_streak_{};
  /// Ports whose streak crossed the threshold since the last Network poll.
  std::uint8_t escalation_requests_ = 0;
  /// Last Topology::route_epoch() this router reconciled against. When the
  /// topology's epoch moves (an accepted escalation or storm kill), step()
  /// re-homes every kVaWait candidate set against the fresh distance tables
  /// before allocating (DESIGN.md §4.12). Deliberately NOT part of
  /// state_digest(): it is unobservable for quiescent routers, and folding
  /// it in would make scan and event kernels diverge on who noticed first.
  std::uint32_t route_epoch_seen_ = 0;

  /// 4-stage pipeline: the dedicated switch-traversal register. `wire`
  /// is what travels (possibly wrecked by an unprotected SA upset);
  /// `stored` is the clean pre-crossbar copy for the retransmission
  /// barrel, recorded at flush time so NACK-loop ages line up.
  struct StagedFlit {
    Flit wire;
    Flit stored;
    VcId vc;
  };
  std::array<std::optional<StagedFlit>, kNumDirections> staged_;
  int staged_count_ = 0;  ///< Occupied entries of staged_ (fast skip).
  InlineVec<PendingNack, 8> pending_nacks_;
  InlineVec<OutboxItem, 8> outbox_;
  std::unordered_map<std::uint32_t, ProbeRoute> own_probe_route_;
  /// Any input-buffer slot freed this cycle (SA, drain, absorb, eject) —
  /// feeds DeadlockAgent::note_progress for the fallback-recovery trigger.
  bool progress_this_cycle_ = false;
  std::uint32_t probe_ttl_ = 0;

  /// Ports whose *outgoing* wire carried a forward signal this step
  /// (flit/probe/activation) and ports whose *incoming* bundle carried a
  /// backward signal (credit/NACK; bit kLocalPort = PE credit). Cleared by
  /// take_wake_info().
  std::uint8_t wrote_fwd_ = 0;
  std::uint8_t wrote_back_ = 0;

  // --- Hot-path scratch and work masks -----------------------------------
  std::uint32_t in_work_ = 0;   ///< Input VCs with buffered flits or state.
  std::uint32_t out_work_ = 0;  ///< Output VCs allocated/waited/occupied.
  /// Output gids whose `allocated` is set (written only by set_allocated).
  /// VA masks it out of the free options and chain resolution takes the
  /// held VC from it, so a blocked VC costs a few bit operations.
  std::uint32_t alloc_ogs_ = 0;
  /// VC 0's gid on every port; `vc0_gids_ << v` selects VC v everywhere.
  std::uint32_t vc0_gids_ = 0;
  std::vector<std::uint32_t> va_reqs_;  // per output gid: requesting inputs
  std::uint32_t va_req_ogs_ = 0;  ///< Output gids with requests this cycle.
  std::uint32_t absorbed_ = 0;    ///< Output gids absorbed-into this cycle.
  int tx_occ_ = 0;  ///< Running sum of input-buffer occupancy (sampling).
  /// Running sum of retransmission-barrel occupancy across all output VCs
  /// (sampling). Updated at every barrel mutation; a NACK rollback moves
  /// entries sent->pending without changing the sum.
  int rtx_occ_ = 0;
  mutable int tx_slots_cache_ = -1;
  mutable int rtx_slots_cache_ = -1;

  // --- Retransmission-barrel summary caches -------------------------------
  // The barrels are fat objects (inline flit storage); the per-cycle scans
  // must not touch them just to learn "empty". These mirrors are refreshed
  // by refresh_rtx_cache() after every barrel mutation.
  std::uint32_t rtx_sent_mask_ = 0;     ///< Output gids with sent entries.
  std::uint32_t rtx_pending_mask_ = 0;  ///< Output gids with pending entries.
  /// Per output gid: next_retire_at() mirror (valid while the sent bit is
  /// set). rtx_min_retire_ is a lower-bound watermark over the set bits —
  /// it may be stale-low (cheap extra scan), never stale-high.
  std::vector<Cycle> rtx_retire_at_;
  Cycle rtx_min_retire_ = 0;
  void refresh_rtx_cache(int og) {
    const auto& rtx = out_rtx_[static_cast<std::size_t>(og)];
    const std::uint32_t bit = 1u << og;
    if (rtx && rtx->sent_count() > 0) {
      rtx_sent_mask_ |= bit;
      const Cycle due = rtx->next_retire_at();
      rtx_retire_at_[static_cast<std::size_t>(og)] = due;
      if (rtx_min_retire_ > due) rtx_min_retire_ = due;
    } else {
      rtx_sent_mask_ &= ~bit;
    }
    if (rtx && rtx->has_pending()) {
      rtx_pending_mask_ |= bit;
    } else {
      rtx_pending_mask_ &= ~bit;
    }
  }
};

}  // namespace ftnoc
