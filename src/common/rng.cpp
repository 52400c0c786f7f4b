#include "common/rng.hpp"

#include "common/check.hpp"

namespace ftnoc {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // Avoid the all-zero state (splitmix64 cannot produce four zeros from one
  // seed in practice, but the guard costs nothing).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  FTNOC_CHECK(bound > 0);  // `-bound % bound` below divides by zero at 0.
  // Lemire's nearly-divisionless bounded generation (rejection only in the
  // tiny biased band).
  __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(next_u64()) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

Rng Rng::fork() {
  return Rng(next_u64());
}

std::uint64_t Rng::derive_seed(std::uint64_t base, std::uint64_t index) {
  // Two rounds of the seeding mixer over (base, index) give full avalanche,
  // so consecutive indices map to unrelated seeds.
  std::uint64_t x = base;
  x = splitmix64(x) ^ index;
  return splitmix64(x);
}

}  // namespace ftnoc
