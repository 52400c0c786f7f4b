#pragma once
// Synthetic traffic generation (paper §2.2): uniform Bernoulli injection at
// a configured flit rate, with three destination distributions — normal
// random (NR), bit-complement (BC) and tornado (TN).

#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/flit.hpp"
#include "noc/topology.hpp"

namespace ftnoc {

/// Picks the destination for a packet from `src` under pattern `p`.
/// Self-addressed results (possible for BC/TN at fixed points) are remapped
/// to the next node so every packet actually enters the network.
NodeId pick_destination(const Topology& topo, TrafficPattern p, NodeId src,
                        Rng& rng);

/// Per-node packet source. Each cycle it flips a Bernoulli coin with
/// p = injection_rate / packet_length so the long-run offered load equals
/// `injection_rate` flits/node/cycle.
///
/// The coins are flipped ahead: between injections the private stream
/// sees nothing but one coin per cycle, so drawing the coins of cycles
/// c, c+1, … up to the first success consumes the same draws in the same
/// order as flipping one per cycle. The destination and payload draws
/// still happen at the firing cycle, before the next gap is drawn. The
/// look-ahead stops after kLookAheadChunk failed coins at a no-fire
/// checkpoint, so a vanishing rate costs one draw per cycle, as before,
/// and never a long loop.
class TrafficSource {
 public:
  /// Most coins one look-ahead draws before it arms a checkpoint.
  static constexpr Cycle kLookAheadChunk = 4096;

  TrafficSource(const Topology& topo, NodeId self, TrafficPattern pattern,
                double injection_rate, int packet_length, Rng rng);

  /// Returns the flits of a newly generated packet, or nullopt this cycle.
  /// `next_packet_id` is advanced on generation. Cycles count from
  /// 0; calls may skip cycles before next_due(), never next_due() itself.
  /// A call before next_due() draws nothing.
  std::optional<std::vector<Flit>> maybe_generate(Cycle now,
                                                  PacketId& next_packet_id);

  /// The next cycle maybe_generate() must be called at: the armed
  /// injection, or a no-fire checkpoint where the look-ahead resumes.
  Cycle next_due() const { return armed_; }

  /// Deterministically builds one packet (used by tests and by the E2E
  /// retransmission path, which re-encodes a clean copy).
  static std::vector<Flit> build_packet(PacketId pid, NodeId src, NodeId dest,
                                        int packet_length, Cycle birth,
                                        Rng* payload_rng);

 private:
  /// Flips the coins of cycles from, from+1, … and arms the first success,
  /// or a checkpoint after kLookAheadChunk failures.
  void arm(Cycle from);

  const Topology& topo_;
  NodeId self_;
  TrafficPattern pattern_;
  double generate_prob_;
  int packet_length_;
  Rng rng_;
  /// Starts as a checkpoint at cycle 0, so the first gap is drawn by the
  /// first call (during the run, not during network construction).
  Cycle armed_ = 0;
  bool fires_ = false;  ///< armed_ is an injection, not a checkpoint.
};

}  // namespace ftnoc
