#pragma once
// The wire-level signals a router speaks: Wire bundles in, Wire bundles
// out, an eject callback toward the local PE, and the wake report the
// event-driven Network reads after each router step.

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "core/deadlock.hpp"
#include "core/flit.hpp"
#include "noc/channel.hpp"

namespace ftnoc {

/// One returned buffer slot for a VC.
struct Credit {
  VcId vc = kInvalidVc;
};

/// Link-level negative acknowledgement for a VC (HBH retransmission).
struct NackMsg {
  VcId vc = kInvalidVc;
};

/// All wires of one *directed* link A->B. Forward signals (flit, probe,
/// activation) travel A->B; credit and NACK travel B->A on the same bundle.
struct Wire {
  /// Which channels have a readable value this cycle (kCur* bits), computed
  /// at tick time. The per-cycle consumer polls touch this one byte instead
  /// of five channels spread over several cache lines. Consuming a value
  /// does not clear its bit: each channel has exactly one consumer that
  /// polls at most once per cycle, and the next tick recomputes the mask.
  std::uint8_t cur_mask = 0;
  /// Optional consumer-side mirrors of cur_mask, written at tick time.
  /// A router registers a slot inside its own contiguous signal array for
  /// each bundle it consumes (fwd side for its in-wires, back side for its
  /// out-wires), so its per-cycle wire polls stay on one cache line
  /// instead of chasing ten scattered Wire objects.
  std::uint8_t* fwd_sig = nullptr;
  std::uint8_t* back_sig = nullptr;
  static constexpr std::uint8_t kCurFlit = 1u << 0;
  static constexpr std::uint8_t kCurCredit = 1u << 1;
  static constexpr std::uint8_t kCurNack = 1u << 2;
  static constexpr std::uint8_t kCurProbe = 1u << 3;
  static constexpr std::uint8_t kCurActivation = 1u << 4;
  /// Forward-travelling signals (consumed by the downstream router).
  static constexpr std::uint8_t kCurFwd = kCurFlit | kCurProbe | kCurActivation;
  /// Backward-travelling signals (consumed by the upstream producer).
  static constexpr std::uint8_t kCurBack = kCurCredit | kCurNack;

  Channel<Flit> flit;
  MultiChannel<Credit> credit;
  Channel<NackMsg> nack;
  Channel<ProbeSignal> probe;
  Channel<ActivationSignal> activation;
  void tick() {
    flit.tick();
    credit.tick();
    nack.tick();
    probe.tick();
    activation.tick();
    cur_mask = static_cast<std::uint8_t>(
        (flit.peek().has_value() ? kCurFlit : 0) |
        (!credit.empty() ? kCurCredit : 0) |
        (nack.peek().has_value() ? kCurNack : 0) |
        (probe.peek().has_value() ? kCurProbe : 0) |
        (activation.peek().has_value() ? kCurActivation : 0));
    if (fwd_sig != nullptr) *fwd_sig = cur_mask;
    if (back_sig != nullptr) *back_sig = cur_mask;
  }
  /// Ticks all channels and reports whether anything is still in flight
  /// (a value now readable at the consumer). A wire returning false has
  /// fully settled and needs no further ticks until the next write — the
  /// event-driven Network keeps only live wires on its tick list.
  bool tick_live() {
    tick();
    return !idle();
  }
  /// No value is readable and none is latched for the next edge.
  bool idle() const {
    return flit.idle() && credit.idle() && nack.idle() && probe.idle() &&
           activation.idle();
  }
};

/// Callback delivering an ejected flit to the local processing element.
using EjectFn = std::function<void(const Flit&, Cycle)>;

/// What the event-driven Network needs to know after a router step:
/// which output ports the router drove forward signals on (flit/probe/
/// activation — wakes the downstream consumer), which input-side bundles
/// it drove backward signals on (credit/NACK — wakes the upstream
/// producer; bit kLocalPort wakes the PE), whether the router wants an
/// unconditional self-tick next cycle, and otherwise an optional exact
/// timer for its earliest delayed action: the own-probe GC of an idle
/// router, or the barrel retire, stall end or probe launch a router
/// asleep on blocked VCs waits for. `timer == 0` means no timer.
struct WakeInfo {
  std::uint8_t wrote_fwd = 0;
  std::uint8_t wrote_back = 0;
  bool retick = false;
  Cycle timer = 0;
};

}  // namespace ftnoc
