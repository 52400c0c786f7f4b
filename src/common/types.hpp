#pragma once
// Basic value types shared by every ftnoc subsystem.

#include <cstdint>
#include <string>

namespace ftnoc {

/// Simulation time, in router clock cycles.
using Cycle = std::uint64_t;

/// Flat node identifier in a topology (0 .. num_nodes-1).
using NodeId = std::uint16_t;

/// Packet identifier, unique per simulation run.
using PacketId = std::uint64_t;

/// Index of a virtual channel within a physical channel.
using VcId = std::uint8_t;

/// Index of a physical port on a router.
using PortId = std::uint8_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = 0xFFFF;

/// Sentinel for "no port".
inline constexpr PortId kInvalidPort = 0xFF;

/// Sentinel for "no VC".
inline constexpr VcId kInvalidVc = 0xFF;

/// Physical directions of a 2-D mesh router. `kLocal` is the PE port.
/// The numeric values are used directly as port indices.
enum class Direction : std::uint8_t {
  kNorth = 0,
  kEast = 1,
  kSouth = 2,
  kWest = 3,
  kLocal = 4,
};

inline constexpr int kNumDirections = 5;

/// Upper bound on VCs per physical channel. Routers index (port, VC) pairs
/// as gids in 32-bit masks and arbiter request sets, so kNumDirections *
/// kMaxVcs must stay <= 32 (static_asserted beside the router's masks).
inline constexpr int kMaxVcs = 6;

/// Returns the direction a flit arriving from `d` entered through
/// (i.e. the port on the receiving router facing back at the sender).
constexpr Direction opposite(Direction d) {
  switch (d) {
    case Direction::kNorth: return Direction::kSouth;
    case Direction::kEast: return Direction::kWest;
    case Direction::kSouth: return Direction::kNorth;
    case Direction::kWest: return Direction::kEast;
    case Direction::kLocal: return Direction::kLocal;
  }
  return Direction::kLocal;
}

inline const char* to_string(Direction d) {
  switch (d) {
    case Direction::kNorth: return "N";
    case Direction::kEast: return "E";
    case Direction::kSouth: return "S";
    case Direction::kWest: return "W";
    case Direction::kLocal: return "L";
  }
  return "?";
}

/// Integer coordinates of a node in a 2-D mesh/torus.
struct Coord {
  int x = 0;
  int y = 0;

  friend bool operator==(const Coord&, const Coord&) = default;
};

inline std::string to_string(const Coord& c) {
  return "(" + std::to_string(c.x) + "," + std::to_string(c.y) + ")";
}

}  // namespace ftnoc
