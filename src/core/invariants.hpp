#pragma once
// Cycle-level invariant monitor (DESIGN.md §4.8).
//
// The paper states its correctness claims as invariants — Eq. (1)'s
// buffering bound for guaranteed deadlock recovery (§3.2), the probe
// protocol's no-false-positive guarantee (§3.2.2), flit-exact
// retransmission (§3.1) — and PR 3's cycle kernel added implementation
// invariants of its own (work-mask/state agreement, running occupancy
// counters). This monitor checks all of them every cycle while a run is
// flagged with `SimConfig::check_invariants`.
//
// The monitor is a pure observer: it draws no randomness, charges no
// energy, and touches no simulation state, so attaching it cannot change
// behaviour (the golden digests pin this). The routers and the network
// feed it events and run its structural walks; on a violation it emits a
// structured diagnostic through common/log — cycle, router, port, vc,
// invariant id, detail — and aborts (the fuzz harness switches it to
// count-and-continue instead).
//
// Checked invariants:
//  * flit conservation — injected = ejected + in-flight + dropped −
//    rollback-restored, where in-flight spans input buffers, the 4-stage
//    ST registers, link wires and the retransmission barrels' pending
//    regions;
//  * credit conservation — per directed link and VC, sender credits +
//    credits bound to in-flight/rolled-back flits + credits on the return
//    wire + receiver occupancy account for exactly the buffer depth
//    (drops to an upper bound when a loss process — link errors with HBH,
//    unprotected handshakes — can legitimately consume instances);
//  * work-mask agreement — a clear in_work_/out_work_ bit proves the VC
//    idle, a set bit proves it busy (the PR 3 active-list contract);
//  * occupancy counters — tx_occ_ and staged_count_ match a from-scratch
//    recount;
//  * receive-sequence monotonicity — after the HBH drop window and any
//    replay, a receiver still observes every packet's flits in strictly
//    increasing seq order (gated off when lost NACKs are possible);
//  * probe lifecycle — recovery only engages at a probe's origin after
//    that probe returned, at a router that relayed the probe, or through
//    the configured fallback (Rules 1-4);
//  * Eq. (1) — re-evaluated with the engaging router's actual buffer
//    sizes whenever recovery engages;
//  * dead-link traversal — once a router reports a port hard-dead (§4.9),
//    the outgoing link wire never again carries a flit;
//  * dead-port commitment — no waiting head and no pure-reservation
//    deadlock waiter is bound to a dead or draining port.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "core/flit.hpp"

// Compile-time master switch. Default on; configure with
// -DFTNOC_INVARIANTS=OFF to compile every monitor hook out of the router
// hot path entirely.
#ifndef FTNOC_ENABLE_INVARIANTS
#define FTNOC_ENABLE_INVARIANTS 1
#endif

// Wraps a monitor hook statement so that -DFTNOC_INVARIANTS=OFF removes it
// from the instruction stream entirely (not even a null-pointer test).
#if FTNOC_ENABLE_INVARIANTS
#define FTNOC_INVARIANT_HOOK(stmt) \
  do {                             \
    stmt;                          \
  } while (0)
#else
#define FTNOC_INVARIANT_HOOK(stmt) \
  do {                             \
  } while (0)
#endif

namespace ftnoc {

enum class InvariantId : std::uint8_t {
  kFlitConservation,
  kCreditConservation,
  kWorkMaskAgreement,
  kOccupancyCounter,
  kStagedRegister,
  kSequenceMonotonic,
  kProbeLifecycle,
  kRecoveryBufferBound,
  kDeadLinkTraversal,
  /// DAMQ shared-pool accounting (DESIGN.md §4.11): sender side, the
  /// per-port shared credit counter plus all per-VC shared_held counters
  /// must equal the shared budget; receiver side, the pool's free/used/
  /// per-VC occupancy recount must agree with its running counters.
  kSharedPoolConservation,
  /// Non-minimal escape tier (DESIGN.md §4.12): a single packet must not
  /// accrue more escape detours than 4 * num_nodes. Between detours the
  /// packet routes by strict BFS-distance descent, so its total work is
  /// bounded by (detours + 1) * diameter; a packet exceeding the bound is
  /// livelocking on the misroute path.
  kMisrouteBound,
  /// No new commitment toward a dead or draining port (DESIGN.md §4.9):
  /// no kVaWait candidate set names one (skipped under RT upsets, which
  /// legitimately corrupt candidate sets), and no registered deadlock
  /// waiter with zero absorbed flits sits on an output VC toward one —
  /// begin_link_drain() must re-home both.
  kDeadPortCommitment,
};

const char* to_string(InvariantId id);

/// How a router came to enter recovery mode (probe-lifecycle legality).
enum class RecoveryTrigger : std::uint8_t {
  kActivationReturned,  ///< Origin: its own activation completed the loop.
  kActivationRelay,     ///< A relay of the probe received the activation.
  kFallback,            ///< Unilateral entry after repeated probe expiry.
};

class InvariantMonitor {
 public:
  explicit InvariantMonitor(const SimConfig& cfg);

  // --- Violation sink -----------------------------------------------------
  /// Logs the structured diagnostic and aborts (or counts, for the fuzz
  /// harness). `port`/`vc` may be -1 when the invariant is not localized.
  void fail(InvariantId id, Cycle now, NodeId router, int port, int vc,
            const std::string& detail);
  void set_abort_on_violation(bool v) { abort_on_violation_ = v; }
  std::uint64_t violations() const { return violations_; }
  /// First violation's diagnostic line (divergence triage).
  const std::string& first_violation() const { return first_violation_; }

  // --- Flit-conservation ledger -------------------------------------------
  void on_injected() { ++injected_; }
  void on_ejected() { ++ejected_; }
  void on_dropped() { ++dropped_; }
  /// `n` flits moved back from a retransmission barrel's sent region to
  /// its pending region by a NACK rollback (each re-materializes a live
  /// instance whose wire copy the receiver dropped).
  void on_restored(int n) { restored_ += static_cast<std::uint64_t>(n); }
  std::uint64_t injected() const { return injected_; }
  std::uint64_t ejected() const { return ejected_; }
  std::uint64_t dropped() const { return dropped_; }

  /// `live` is the network-wide in-flight population counted from actual
  /// state: input buffers + ST registers (minus replay shadows) + link
  /// wires + barrel pending regions.
  void check_flit_conservation(Cycle now, long long live);

  // --- Credit conservation ------------------------------------------------
  /// Whether the configuration admits no credit-loss process, making the
  /// per-link credit sum an exact equality rather than an upper bound.
  bool strict_credits() const { return strict_credits_; }
  /// `total` is the full accounting for one directed link and VC as seen
  /// by the Network walk; must be == depth (strict) or <= depth (lossy).
  void check_credit_sum(Cycle now, NodeId sender, int port, int vc,
                        int total, int depth);

  // --- Receive-sequence monotonicity --------------------------------------
  bool sequence_check_enabled() const { return seq_check_; }
  /// Called for every flit a router accepts into an input buffer (after
  /// the link-protection policy; dropped flits never reach this).
  void on_flit_accepted(Cycle now, NodeId router, int port, const Flit& f);

  // --- Probe lifecycle ----------------------------------------------------
  void on_probe_minted(NodeId origin, std::uint32_t probe_id);
  void on_probe_forwarded(NodeId relay, NodeId origin, std::uint32_t probe_id);
  void on_probe_confirmed(Cycle now, NodeId origin, std::uint32_t probe_id);
  /// `tx_size`/`rtx_size` are the engaging router's per-VC transmission
  /// and retransmission buffer depths for the Eq. (1) re-check.
  void on_recovery_entered(Cycle now, NodeId router, RecoveryTrigger trigger,
                           NodeId origin, std::uint32_t probe_id,
                           int tx_size, int rtx_size);

  // --- Non-minimal escape tier ---------------------------------------------
  /// Called each time a router detours packet `pid` over the escape-port
  /// set (adaptive_faults). Fails kMisrouteBound when one packet's detour
  /// count exceeds 4 * num_nodes (livelock on the misroute path).
  void on_misroute(Cycle now, NodeId router, PacketId pid);

 private:
  struct StreamState {
    bool open = false;
    PacketId pid = 0;
    std::uint8_t next_seq = 0;
  };
  StreamState& stream(NodeId router, int port, int vc);

  SimConfig cfg_;
  bool abort_on_violation_ = true;
  bool seq_check_ = false;
  bool strict_credits_ = false;

  std::uint64_t violations_ = 0;
  std::string first_violation_;

  std::uint64_t injected_ = 0;
  std::uint64_t ejected_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t restored_ = 0;

  // One receive-stream tracker per (router, input port, vc).
  std::vector<StreamState> streams_;

  // Probe lifecycle. Minting is single-outstanding per origin (the agent
  // tracks one `outstanding_` id), so the latest mint is all a *return*
  // can legally reference. Relays and confirmations are not: the agent
  // remembers a bounded list of relayed probes (DeadlockAgent::seen_) and
  // may legally act on an activation for any of them — a router can relay
  // a newer probe from the same origin while the older probe's activation
  // is still circulating the cycle — so those are tracked as bounded
  // recent-id lists, sized to never forget before the agent does.
  struct ProbeRecord {
    std::uint32_t id = 0;
    bool valid = false;
  };
  struct RecentIds {
    std::vector<std::uint32_t> ids;  ///< Oldest first, ≤ kMaxRecentProbes.
  };
  static constexpr std::size_t kMaxRecentProbes = 64;
  static void remember(RecentIds& r, std::uint32_t id);
  static bool contains(const RecentIds& r, std::uint32_t id);
  std::vector<ProbeRecord> minted_;   ///< Per origin: latest minted probe.
  std::vector<RecentIds> confirmed_;  ///< Per origin: returned probes.
  std::vector<RecentIds> relayed_;    ///< Per (relay, origin): relayed probes.

  // Escape-detour counts per packet (kMisrouteBound). Entries are few —
  // detours only happen while a candidate set is stale around a fresh
  // fault — so a flat map keyed by packet id is plenty.
  std::uint32_t misroute_bound_ = 0;
  std::unordered_map<PacketId, std::uint32_t> misroutes_;
};

}  // namespace ftnoc
