#pragma once
// Simulation configuration. One flat struct keeps every knob in one place;
// components receive const references (or copies of the sub-struct they
// need) at construction and never consult globals.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ftnoc {

/// Which routing algorithm the routers run.
enum class RoutingAlgorithm : std::uint8_t {
  kXY,              ///< Deterministic dimension-ordered (paper's "DT").
  kMinimalAdaptive, ///< Minimal fully-adaptive (paper's "AD"); deadlock-prone.
  /// Duato-style deadlock *avoidance*: adaptive VCs plus a reserved escape
  /// VC (VC 0) driven by deadlock-free XY. The alternative the paper
  /// argues against in §3.2 — it needs no recovery, but "the flits in
  /// these escape VCs are managed by a deadlock-free deterministic routing
  /// algorithm, thereby limiting adaptivity".
  kAdaptiveEscape,
};

/// Link-level protection scheme (paper §3).
enum class LinkProtection : std::uint8_t {
  kNone,  ///< No protection; errors silently corrupt flits.
  kFec,   ///< Forward error correction only (SEC); double errors undetected
          ///< at the link, caught (but not recoverable) at the destination.
  kE2e,   ///< End-to-end retransmission with SEC/DED at the destination.
  kHbh,   ///< Paper's flit-based hop-by-hop retransmission (SEC/DED + NACK).
};

/// Destination distribution of synthetic traffic (paper §2.2).
enum class TrafficPattern : std::uint8_t {
  kUniformRandom,   ///< "NR": uniform over all other nodes.
  kBitComplement,   ///< "BC": dest = bitwise complement of source index.
  kTornado,         ///< "TN": dest = (x + X/2 - 1) mod X in each dimension.
};

/// Input-buffer organization of the routers (DESIGN.md §4.11). The enum
/// lives here with the other config enums so the common layer can parse
/// and validate it; the buffer-policy machinery itself (the DAMQ free-slot
/// pool, the VOQ class map) is in core/buffer_policy.{hpp,cpp}.
enum class BufferPolicyKind : std::uint8_t {
  /// One private `vc_buffer_depth`-flit FIFO per (port, VC) — the paper's
  /// layout, assumed by Eq. (1) as written.
  kPrivateVc,
  /// Dynamically-Allocated Multi-Queue: the VCs of one link input port
  /// share a single pool of num_vcs * vc_buffer_depth slots, with
  /// `damq_reserve_slots` slots reserved per VC for deadlock freedom
  /// (after Jamali & Khademzadeh, arXiv 0910.1852).
  kDamq,
  /// Virtual-output-queue discipline: packets travel in the VC class of
  /// their destination column for their whole journey, removing
  /// head-of-line blocking between destination columns (after
  /// Papaphilippou & Chu, arXiv 2303.10526). Requires XY routing.
  kVoq,
};

/// A deliberately planted router bug. Each one proves a check catches a
/// class of defect end to end: the fuzz harness's self-tests
/// (tools/ftnoc_fuzz.cpp) for the invariant-visible ones, a scripted unit
/// test for `drop_window` (DESIGN.md §4.8).
enum class TestMutation : std::uint8_t {
  kNone,
  /// "drop_window": reverts the 4-stage HBH drop window to the pre-fix
  /// now+2, so a stale third follower is accepted out of order.
  kDropWindow,
  /// "damq_credit_leak": skips the per-VC shared-held decrement on a DAMQ
  /// credit return, inflating the sender's shared-pool accounting.
  kDamqCreditLeak,
  /// "route_into_dead_link": routes with the fault-blind closed form,
  /// steering headers at failed ports (only observable on faulted
  /// topologies).
  kRouteIntoDeadLink,
  /// "strand_waiter": a dead-port drain leaves registered deadlock waiters
  /// on the draining port instead of re-homing them, wedging the drain.
  kStrandWaiter,
};

const char* to_string(RoutingAlgorithm a);
const char* to_string(LinkProtection p);
const char* to_string(TrafficPattern t);
const char* to_string(BufferPolicyKind b);
const char* to_string(TestMutation m);
/// Parses a plant name ("none" or one of the names above); nullopt if the
/// name is unknown.
std::optional<TestMutation> parse_test_mutation(std::string_view name);

/// Fault process rates. All are per-opportunity Bernoulli probabilities.
struct FaultConfig {
  /// Probability a flit is hit by an error during one link traversal.
  double link_error_rate = 0.0;
  /// Given a link error, probability it is a ≥2-bit upset (SEC cannot
  /// correct it; SEC/DED detects it). Single-bit otherwise.
  double multi_bit_fraction = 0.05;
  /// Probability a routing computation (per header flit, per hop) is upset.
  double rt_error_rate = 0.0;
  /// Probability a VA allocation (per granted output VC) is upset.
  double va_error_rate = 0.0;
  /// Probability an SA grant (per granted crossbar passage) is upset.
  double sa_error_rate = 0.0;
  /// Probability a retransmission-buffer copy is upset (per replay read).
  /// §4.5: without duplicate buffers this causes an endless
  /// retransmission loop.
  double rtx_error_rate = 0.0;
  /// Probability a handshake signal (credit / NACK line) is upset per
  /// transfer. §4.6: TMR on the handshake lines votes these away.
  double handshake_error_rate = 0.0;
  /// Permanent-fault escalation: after this many *consecutive*
  /// uncorrectable upsets observed on one input link, the link is declared
  /// hard-dead — the network drains the in-flight wormholes crossing it,
  /// re-homes waiting packets and reroutes around it for the rest of the
  /// run (unless killing it would partition the mesh, in which case the
  /// link keeps limping). 0 disables escalation.
  int link_escalation_threshold = 0;
};

/// Deadlock detection/recovery knobs (paper §3.2).
struct DeadlockConfig {
  bool enable_recovery = false;
  /// Blocked-cycle threshold before a probe is launched (paper's Cthres).
  Cycle probe_threshold = 64;
  /// Minimum gap between successive probes from the same VC.
  Cycle probe_backoff = 32;
  /// A probe that neither returned nor was superseded by an activation
  /// within this many cycles is considered lost (it was discarded at a
  /// non-blocked node); the router may probe again. Must comfortably
  /// exceed the largest possible cycle length (a few network diameters).
  Cycle probe_timeout = 128;
  /// Probes are dropped after this many hops so they cannot circulate
  /// forever inside a dependency cycle that does not contain their origin.
  /// 0 = auto (4x the node count).
  std::uint32_t probe_ttl = 0;
  /// Fallback self-recovery: a router whose probes expired this many times
  /// in a row with *zero local progress* in between enters recovery mode
  /// unilaterally. Handles dense multi-cycle saturation knots where a
  /// blocked packet's dependency chain ends in a cycle it is not part of
  /// (its probe can then never return). 0 disables the fallback.
  int fallback_probe_failures = 4;
  /// A router stays in recovery while any of its VCs has made no progress
  /// for more than this many cycles (independent of probe_threshold, so
  /// aggressive probing cannot livelock the exit); while any router is in
  /// recovery, the chip-wide injection gate stays asserted.
  Cycle exit_block_window = 512;
};

struct SimConfig {
  // --- Topology (paper §2.2: 8x8 mesh) ---
  int mesh_width = 8;
  int mesh_height = 8;
  bool torus = false;  ///< Wrap-around links (used by tornado traffic study).

  // --- Router microarchitecture ---
  int num_vcs = 3;            ///< VCs per physical channel (paper: 3).
  int vc_buffer_depth = 4;    ///< Flits per VC transmission buffer.
  int pipeline_stages = 3;    ///< 1..4 (paper evaluates 3-stage).
  int retransmission_depth = 3;  ///< Barrel-shifter depth (paper: 3).
  /// Input-buffer organization (DESIGN.md §4.11). All three policies use
  /// the same total buffer budget of num_vcs * vc_buffer_depth slots per
  /// link input port; only the sharing discipline differs. The local
  /// injection port always keeps private per-VC rings.
  BufferPolicyKind buffer_policy = BufferPolicyKind::kPrivateVc;
  /// DAMQ only: slots reserved per VC out of the shared pool (the paper's
  /// deadlock-freedom floor). Must be in [1, vc_buffer_depth]; the shared
  /// region is num_vcs * (vc_buffer_depth - damq_reserve_slots) slots.
  int damq_reserve_slots = 2;

  // --- Traffic ---
  double injection_rate = 0.1;  ///< flits/node/cycle.
  int packet_length = 4;        ///< flits per packet (paper: 4).
  TrafficPattern pattern = TrafficPattern::kUniformRandom;
  /// Application-style workload replayed on top of (or, with
  /// injection_rate=0, instead of) the synthetic sources (DESIGN.md §4.14).
  /// `workload_file` names a workload text file ("workload=FILE"
  /// override); `workload_text` carries the same grammar inline (presets,
  /// tests). At most one may be set; parsing happens in the noc layer
  /// (Network's constructor), which aborts on a malformed workload.
  std::string workload_file;
  std::string workload_text;
  /// Accumulate per-directed-link forwarded-flit and stall-cycle counters
  /// ("link_stats=1"). Off by default: the counters are cheap but the JSONL
  /// columns they add would break byte-identity of existing outputs.
  bool link_stats = false;
  /// Terminate when the loaded trace/workload is fully drained (every
  /// released packet ejected or dropped) instead of after total_messages
  /// ejections ("run_to_drain=1"). Ignored when no trace is loaded;
  /// max_cycles still caps the run.
  bool run_to_drain = false;

  // --- Protection / routing ---
  RoutingAlgorithm routing = RoutingAlgorithm::kXY;
  LinkProtection protection = LinkProtection::kHbh;
  /// Hard faults: links dead from the start of the run (both directions of
  /// the physical channel). The paper models link outages as static state
  /// in the VA's link-state table (§4.2); adaptive routing detours around
  /// them, deterministic routing cannot. Override syntax: "dead_link=5:E"
  /// (node 5's East link), repeatable.
  std::vector<std::pair<NodeId, Direction>> dead_links;
  /// Hard faults: routers dead from the start of the run. A dead router
  /// injects no traffic, all four of its links are failed, and packets
  /// addressed to it are dropped as unreachable at their current router.
  /// Override syntax: "dead_router=5", repeatable.
  std::vector<NodeId> dead_routers;
  /// A link kill scheduled mid-run (the fault-storm timeline): at cycle
  /// `at` the network hard-fails the channel leaving `node` through `dir`
  /// exactly as a runtime escalation would — partition veto, drain on both
  /// endpoints, route-epoch bump. Vetoed kills are skipped, never retried.
  struct LinkKill {
    Cycle at = 0;
    NodeId node = 0;
    Direction dir = Direction::kEast;
  };
  /// Storm schedule, sorted by cycle (validate() enforces). Override
  /// syntax: "storm_kill=CYCLE:NODE:D" with D in {N,E,S,W}, repeatable.
  std::vector<LinkKill> storm_kills;
  /// Self-healing routing tier (DESIGN.md §4.12): when every minimal
  /// fault-aware candidate of a waiting head is locally unusable (dead or
  /// draining), detour it non-minimally over the live escape ports closest
  /// to the destination instead of parking it (non-XY) or bouncing it back
  /// to RT (XY). Off by default; fault-free behaviour and all existing
  /// golden digests are unaffected. Override: "adaptive_faults=1".
  bool adaptive_faults = false;
  /// Allocation Comparator present (§4). Off = logic upsets go unprotected
  /// (ablation baseline).
  bool enable_ac = true;
  /// Detection-only link code: the receiver retransmits on *any* detected
  /// error instead of correcting single-bit upsets in place. Models the
  /// pure-retransmission baselines of the Figure 5 comparison; the paper's
  /// proposed scheme is the hybrid (false).
  bool ecc_detect_only = false;
  /// §4.5's fool-proof option: duplicate retransmission buffers. A
  /// corrupted barrel copy is recovered from the duplicate instead of
  /// looping forever; costs double rtx area/power.
  bool duplicate_rtx_buffers = false;
  /// §4.6: Triple Module Redundancy on the handshaking lines (credits and
  /// NACKs). On by default, as the paper proposes; disabling it exposes
  /// handshake upsets (credit leaks / lost NACKs).
  bool tmr_handshaking = true;
  FaultConfig faults;
  DeadlockConfig deadlock;

  // --- Verification / debug (not part of the sweep JSONL output) ---
  /// Attach the cycle-level InvariantMonitor (DESIGN.md §4.8). Requires a
  /// build with FTNOC_ENABLE_INVARIANTS (the default); a violation logs a
  /// structured diagnostic and aborts.
  bool check_invariants = false;
  /// Planted router bug the fuzz self-tests and unit tests must catch
  /// (override "test_mutation=NAME" with NAME "none", "drop_window",
  /// "damq_credit_leak", "route_into_dead_link" or "strand_waiter").
  TestMutation test_mutation = TestMutation::kNone;
  /// Force the per-cycle full router scan instead of the event-queue
  /// kernel (DESIGN.md §4.10). The two are byte-identical by contract;
  /// the override exists for determinism tests and A/B perf comparison.
  bool force_scan_kernel = false;

  // --- Run control ---
  std::uint64_t seed = 1;
  std::uint64_t warmup_messages = 100'000;  ///< Paper: 100k warm-up.
  std::uint64_t total_messages = 300'000;   ///< Paper: 300k ejected total.
  Cycle max_cycles = 10'000'000;  ///< Hard stop (diverged/saturated runs).

  int num_nodes() const { return mesh_width * mesh_height; }

  /// True when a workload (file or inline text) is configured.
  bool has_workload() const {
    return !workload_file.empty() || !workload_text.empty();
  }

  /// True when the run can contain hard (permanent) faults: static dead
  /// links/routers, or runtime link escalation armed. Gates the fault-only
  /// JSONL columns so fault-free output stays byte-identical.
  bool has_permanent_faults() const {
    return !dead_links.empty() || !dead_routers.empty() ||
           !storm_kills.empty() || faults.link_escalation_threshold > 0;
  }

  /// Validates invariants (positive sizes, rates in [0,1], ...).
  /// Returns an error description, or nullopt if the config is valid.
  std::optional<std::string> validate() const;
};

/// The node reached by leaving `n` through `d` on `c`'s mesh/torus, or -1
/// at a mesh edge (and for kLocal). Mirrors Topology::neighbor without
/// depending on the noc layer: row 0 is the top of the mesh, north
/// decreases y, the torus wraps. Validation uses it for the reachability
/// precheck.
int mesh_neighbor(const SimConfig& c, int n, Direction d);

/// Parses `key=value` overrides (e.g. from argv) into `cfg`.
/// Recognized keys mirror the field names, e.g. "mesh_width=4",
/// "protection=hbh", "pattern=bc", "routing=adaptive",
/// "link_error_rate=0.001". Returns an error message on unknown key or
/// malformed value.
std::optional<std::string> apply_override(SimConfig& cfg,
                                          const std::string& assignment);

/// Applies a whole argv-style list of overrides; stops at the first error.
std::optional<std::string> apply_overrides(
    SimConfig& cfg, const std::vector<std::string>& assignments);

}  // namespace ftnoc
