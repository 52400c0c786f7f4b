#pragma once
// Hamming SEC/DED (72,64) codec — the error-detection/correction blanket the
// paper assumes on every flit (§3: "the architecture already employs a
// single-error correction scheme", SEC/DED detects double-bit errors and
// triggers retransmission).
//
// Layout: a 72-bit codeword. Bit position 0 carries the overall (DED)
// parity; positions 1..71 follow the classic Hamming arrangement where the
// power-of-two positions (1,2,4,8,16,32,64) hold the seven SEC check bits
// and the remaining 64 positions hold the data bits in ascending order.

#include <cstdint>

namespace ftnoc::ecc {

/// A 72-bit codeword: `lo` holds bit positions 0..63, `hi` positions 64..71.
/// bit()/flip() are inline — they sit on the fault-injection and decode hot
/// paths (one call per corrupted bit per flit per hop). Packed to 9 bytes
/// so a Flit fits one cache line; members are read and written by value
/// only (a reference to a packed member may be misaligned).
struct [[gnu::packed]] Codeword {
  std::uint64_t lo = 0;
  std::uint8_t hi = 0;

  friend bool operator==(const Codeword&, const Codeword&) = default;

  bool bit(int pos) const {
    if (pos < 64) return (lo >> pos) & 1;
    return (hi >> (pos - 64)) & 1;
  }
  void flip(int pos) {
    if (pos < 64) {
      lo ^= (1ULL << pos);
    } else {
      hi = static_cast<std::uint8_t>(hi ^ (1u << (pos - 64)));
    }
  }
};

static_assert(sizeof(Codeword) == 9, "72 bits in 9 bytes");

inline constexpr int kCodewordBits = 72;
inline constexpr int kDataBits = 64;
inline constexpr int kCheckBits = 7;  // plus the overall parity bit.

/// Outcome of decoding a (possibly corrupted) codeword.
enum class DecodeStatus : std::uint8_t {
  kClean,          ///< No error detected.
  kCorrected,      ///< Single-bit error corrected (SEC).
  kUncorrectable,  ///< Multi-bit error detected, data unrecoverable (DED).
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kClean;
  std::uint64_t data = 0;  ///< Valid unless status == kUncorrectable.
};

/// Encodes 64 data bits into a SEC/DED codeword.
Codeword encode(std::uint64_t data);

/// Decodes a codeword, correcting a single-bit error if present.
DecodeResult decode(const Codeword& cw);

/// Extracts the data bits without any checking (used by unit tests and the
/// FEC-only scheme's "silent corruption" path).
std::uint64_t extract_data(const Codeword& cw);

}  // namespace ftnoc::ecc
