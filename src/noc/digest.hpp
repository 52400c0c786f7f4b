#pragma once
// State-digest mixer behind Router::state_digest() and
// Network::state_digest(). State is traversed in a fixed order and fed
// through these leaf encoders, so equal state always hashes equal — the
// property scan/event lockstep and the pinned trajectories rest on.
//
// mix() folds one 64-bit word per step: xor, multiply by an odd constant,
// xor-shift. Each of the three is a bijection, so two traversals that
// differ in a single word can never collide. One dependent multiply per
// word (not eight, as byte-wise FNV-1a needs) keeps a whole network's
// digest cheap enough for the fuzz harness to compare two networks every
// cycle.

#include <cstdint>

#include "core/deadlock.hpp"
#include "core/flit.hpp"

namespace ftnoc::digest {

class Mixer {
 public:
  std::uint64_t value() const { return h_; }

  void mix(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x9e3779b97f4a7c15ull;
    h_ ^= h_ >> 29;
  }

  void mix_flit(const Flit& f) {
    mix(static_cast<std::uint64_t>(f.type));
    mix(f.packet_id);
    mix(static_cast<std::uint64_t>(f.src));
    mix(static_cast<std::uint64_t>(f.dest));
    mix(f.seq);
    mix(static_cast<std::uint64_t>(f.birth_cycle));
    mix(static_cast<std::uint64_t>(f.inject_cycle));
    mix(f.payload);
    mix(f.codeword.lo);
    mix(f.codeword.hi);
    mix(static_cast<std::uint64_t>(f.vc));
    mix(static_cast<std::uint64_t>(f.arrived_cycle));
    mix(f.hops);
  }

  void mix_probe(const ProbeSignal& p) {
    mix(static_cast<std::uint64_t>(p.origin));
    mix(p.probe_id);
    mix(static_cast<std::uint64_t>(p.in_port));
    mix(static_cast<std::uint64_t>(p.in_vc));
    mix(p.hops);
  }

  void mix_activation(const ActivationSignal& a) {
    mix(static_cast<std::uint64_t>(a.origin));
    mix(a.probe_id);
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace ftnoc::digest
