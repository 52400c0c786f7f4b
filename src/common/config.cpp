#include "common/config.hpp"

#include <charconv>
#include <cstdlib>

namespace ftnoc {

const char* to_string(RoutingAlgorithm a) {
  switch (a) {
    case RoutingAlgorithm::kXY: return "xy";
    case RoutingAlgorithm::kMinimalAdaptive: return "adaptive";
    case RoutingAlgorithm::kAdaptiveEscape: return "escape";
  }
  return "?";
}

const char* to_string(LinkProtection p) {
  switch (p) {
    case LinkProtection::kNone: return "none";
    case LinkProtection::kFec: return "fec";
    case LinkProtection::kE2e: return "e2e";
    case LinkProtection::kHbh: return "hbh";
  }
  return "?";
}

const char* to_string(TrafficPattern t) {
  switch (t) {
    case TrafficPattern::kUniformRandom: return "nr";
    case TrafficPattern::kBitComplement: return "bc";
    case TrafficPattern::kTornado: return "tn";
  }
  return "?";
}

const char* to_string(BufferPolicyKind b) {
  switch (b) {
    case BufferPolicyKind::kPrivateVc: return "private_vc";
    case BufferPolicyKind::kDamq: return "damq";
    case BufferPolicyKind::kVoq: return "voq";
  }
  return "?";
}

// The one name <-> plant table, for overrides, repro files and --plant.
constexpr std::pair<TestMutation, const char*> kTestMutationNames[] = {
    {TestMutation::kNone, "none"},
    {TestMutation::kDropWindow, "drop_window"},
    {TestMutation::kDamqCreditLeak, "damq_credit_leak"},
    {TestMutation::kRouteIntoDeadLink, "route_into_dead_link"},
    {TestMutation::kStrandWaiter, "strand_waiter"},
};

const char* to_string(TestMutation m) {
  for (const auto& [mut, name] : kTestMutationNames) {
    if (mut == m) return name;
  }
  return "?";
}

std::optional<TestMutation> parse_test_mutation(std::string_view name) {
  for (const auto& [mut, n] : kTestMutationNames) {
    if (name == n) return mut;
  }
  return std::nullopt;
}

int mesh_neighbor(const SimConfig& c, int n, Direction d) {
  int x = n % c.mesh_width;
  int y = n / c.mesh_width;
  switch (d) {
    case Direction::kNorth: y -= 1; break;
    case Direction::kSouth: y += 1; break;
    case Direction::kEast: x += 1; break;
    case Direction::kWest: x -= 1; break;
    case Direction::kLocal: return -1;
  }
  if (x < 0 || x >= c.mesh_width || y < 0 || y >= c.mesh_height) {
    if (!c.torus) return -1;
    x = (x + c.mesh_width) % c.mesh_width;
    y = (y + c.mesh_height) % c.mesh_height;
  }
  return y * c.mesh_width + x;
}

namespace {

/// Reachability precheck for a hard-faulted config: every live router must
/// be able to reach every other live router over live links. Returns the
/// number of live routers reachable from the first one (and the live total
/// through `live_out`).
int live_reachable(const SimConfig& c, int& live_out) {
  const int n = c.num_nodes();
  std::vector<std::uint8_t> router_dead(n, 0);
  std::vector<std::uint8_t> port_dead(static_cast<std::size_t>(n) * 4, 0);
  for (const NodeId r : c.dead_routers) router_dead[r] = 1;
  auto kill = [&](int node, Direction d) {
    port_dead[static_cast<std::size_t>(node) * 4 +
              static_cast<int>(d)] = 1;
  };
  for (const auto& [node, dir] : c.dead_links) {
    kill(node, dir);
    const int nb = mesh_neighbor(c, node, dir);
    if (nb >= 0) kill(nb, opposite(dir));
  }
  int live = 0;
  int first = -1;
  for (int i = 0; i < n; ++i) {
    if (router_dead[i]) continue;
    ++live;
    if (first < 0) first = i;
  }
  live_out = live;
  if (live == 0) return 0;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<int> queue = {first};
  seen[first] = 1;
  int reached = 0;
  while (!queue.empty()) {
    const int cur = queue.back();
    queue.pop_back();
    ++reached;
    for (int p = 0; p < 4; ++p) {
      const auto d = static_cast<Direction>(p);
      if (port_dead[static_cast<std::size_t>(cur) * 4 + p]) continue;
      const int nb = mesh_neighbor(c, cur, d);
      if (nb < 0 || router_dead[nb] || seen[nb]) continue;
      seen[nb] = 1;
      queue.push_back(nb);
    }
  }
  return reached;
}

}  // namespace

std::optional<std::string> SimConfig::validate() const {
  auto err = [](std::string msg) { return std::optional<std::string>(msg); };
  if (mesh_width < 2 || mesh_height < 1) {
    return err("mesh must be at least 2x1");
  }
  if (num_nodes() > 0xFFFF - 1) return err("too many nodes for NodeId");
  // The separable allocators use 32-wide round-robin arbiters and masks
  // over P*V global VC ids; with P = 5 ports that bounds V at kMaxVcs.
  if (num_vcs < 1 || num_vcs > kMaxVcs) {
    return err("num_vcs must be in [1," + std::to_string(kMaxVcs) + "]");
  }
  if (vc_buffer_depth < 1) return err("vc_buffer_depth must be >= 1");
  if (pipeline_stages < 1 || pipeline_stages > 4) {
    return err("pipeline_stages must be in [1,4]");
  }
  if (retransmission_depth < 3) {
    // The NACK loop is 3 cycles long (link + check + NACK); a shallower
    // buffer would overwrite a flit that may still be NACKed.
    return err("retransmission_depth must be >= 3");
  }
  if (pipeline_stages == 4 && retransmission_depth < 4) {
    // The dedicated ST stage adds one in-flight cycle to the NACK loop.
    return err("retransmission_depth must be >= 4 for a 4-stage router");
  }
  if (injection_rate < 0.0 || injection_rate > static_cast<double>(num_vcs)) {
    return err("injection_rate out of range");
  }
  if (packet_length < 1) return err("packet_length must be >= 1");
  if (!workload_file.empty() && !workload_text.empty()) {
    return err("workload_file and workload_text are mutually exclusive");
  }
  auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
  if (!rate_ok(faults.link_error_rate) || !rate_ok(faults.multi_bit_fraction) ||
      !rate_ok(faults.rt_error_rate) || !rate_ok(faults.va_error_rate) ||
      !rate_ok(faults.sa_error_rate) || !rate_ok(faults.rtx_error_rate) ||
      !rate_ok(faults.handshake_error_rate)) {
    return err("fault rates must be probabilities in [0,1]");
  }
  if (total_messages == 0) return err("total_messages must be > 0");
  if (warmup_messages >= total_messages) {
    return err("warmup_messages must be < total_messages");
  }
  if (deadlock.enable_recovery && deadlock.probe_threshold == 0) {
    return err("probe_threshold must be > 0");
  }
  if (deadlock.enable_recovery) {
    // Eq. (1), uniform per-node buffers: recovery is guaranteed iff
    //   sum_i (T_i + R_i) > M * sum_i ceil(T_i / M)
    // which with identical nodes reduces to (T + R) > M * ceil(T / M),
    // independent of the cycle length. At equality the absorbed flits
    // exactly refill the freed slots and recovery livelocks, so refuse
    // the configuration outright instead of wedging at runtime.
    //
    // Under DAMQ sharing a single VC can legally occupy its reserve plus
    // the whole shared region, so the bound must hold for that effective
    // per-VC depth T_eff = K + V*(depth - K), not the nominal depth
    // (DESIGN.md §4.11).
    const long long m = packet_length;
    long long t = vc_buffer_depth;
    if (buffer_policy == BufferPolicyKind::kDamq) {
      t = damq_reserve_slots +
          static_cast<long long>(num_vcs) *
              (vc_buffer_depth - damq_reserve_slots);
    }
    const long long r = retransmission_depth;
    const long long bound = m * ((t + m - 1) / m);
    if (t + r <= bound) {
      return err(
          "deadlock recovery violates Eq. (1): effective vc_buffer_depth + "
          "retransmission_depth (" +
          std::to_string(t + r) + ") must exceed packet_length * "
          "ceil(depth / packet_length) (" + std::to_string(bound) +
          ") or recovery cannot guarantee forward progress");
    }
  }
  if (buffer_policy == BufferPolicyKind::kDamq &&
      (damq_reserve_slots < 1 || damq_reserve_slots > vc_buffer_depth)) {
    return err("damq_reserve_slots must be in [1, vc_buffer_depth]");
  }
  if (buffer_policy == BufferPolicyKind::kVoq &&
      routing != RoutingAlgorithm::kXY) {
    return err(
        "buffer_policy=voq requires routing=xy (the VOQ class discipline "
        "pins each packet's VC for its whole journey, which is only "
        "deadlock-free under dimension-ordered routing)");
  }
  if (routing == RoutingAlgorithm::kAdaptiveEscape && num_vcs < 2) {
    return err("escape routing needs >= 2 VCs (VC 0 is the escape lane)");
  }
  for (const auto& [node, dir] : dead_links) {
    if (node >= num_nodes()) return err("dead_link node out of range");
    if (dir == Direction::kLocal) return err("cannot fail a local link");
  }
  for (const NodeId node : dead_routers) {
    if (node >= num_nodes()) return err("dead_router node out of range");
  }
  for (std::size_t i = 0; i < storm_kills.size(); ++i) {
    const auto& k = storm_kills[i];
    if (k.node >= num_nodes()) return err("storm_kill node out of range");
    if (k.dir == Direction::kLocal) return err("cannot storm-kill a local link");
    if (i > 0 && k.at < storm_kills[i - 1].at) {
      // Both kernels consume the schedule with a single cursor; an
      // out-of-order entry would silently never fire.
      return err("storm_kill schedule must be sorted by cycle");
    }
  }
  if (faults.link_escalation_threshold < 0) {
    return err("link_escalation_threshold must be >= 0");
  }
  if (!dead_links.empty() || !dead_routers.empty()) {
    int live = 0;
    const int reached = live_reachable(*this, live);
    if (live == 0) return err("dead_routers kill every router in the mesh");
    if (reached != live) {
      return err("dead links/routers partition the mesh: only " +
                 std::to_string(reached) + " of " + std::to_string(live) +
                 " live routers are mutually reachable");
    }
  }
  return std::nullopt;
}

namespace {

bool parse_int(const std::string& v, int& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && p == v.data() + v.size();
}

bool parse_u64(const std::string& v, std::uint64_t& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && p == v.data() + v.size();
}

/// A node id in NodeId's range; larger values are rejected, not wrapped.
bool parse_node(const std::string& v, NodeId& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && p == v.data() + v.size();
}

/// One link direction letter, N/E/S/W in either case.
bool parse_dir(const std::string& v, Direction& out) {
  if (v.size() != 1) return false;
  switch (v[0]) {
    case 'N': case 'n': out = Direction::kNorth; return true;
    case 'E': case 'e': out = Direction::kEast; return true;
    case 'S': case 's': out = Direction::kSouth; return true;
    case 'W': case 'w': out = Direction::kWest; return true;
    default: return false;
  }
}

bool parse_double(const std::string& v, double& out) {
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return end == v.c_str() + v.size() && !v.empty();
}

bool parse_bool(const std::string& v, bool& out) {
  if (v == "1" || v == "true" || v == "on") {
    out = true;
    return true;
  }
  if (v == "0" || v == "false" || v == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

std::optional<std::string> apply_override(SimConfig& cfg,
                                          const std::string& assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos) {
    return "expected key=value, got: " + assignment;
  }
  const std::string key = assignment.substr(0, eq);
  const std::string val = assignment.substr(eq + 1);
  auto bad = [&]() -> std::optional<std::string> {
    return "bad value for " + key + ": " + val;
  };

  if (key == "mesh_width") {
    if (!parse_int(val, cfg.mesh_width)) return bad();
  } else if (key == "mesh_height") {
    if (!parse_int(val, cfg.mesh_height)) return bad();
  } else if (key == "torus") {
    if (!parse_bool(val, cfg.torus)) return bad();
  } else if (key == "num_vcs") {
    if (!parse_int(val, cfg.num_vcs)) return bad();
  } else if (key == "vc_buffer_depth") {
    if (!parse_int(val, cfg.vc_buffer_depth)) return bad();
  } else if (key == "pipeline_stages") {
    if (!parse_int(val, cfg.pipeline_stages)) return bad();
  } else if (key == "retransmission_depth") {
    if (!parse_int(val, cfg.retransmission_depth)) return bad();
  } else if (key == "buffer_policy") {
    if (val == "private_vc" || val == "private") {
      cfg.buffer_policy = BufferPolicyKind::kPrivateVc;
    } else if (val == "damq") {
      cfg.buffer_policy = BufferPolicyKind::kDamq;
    } else if (val == "voq") {
      cfg.buffer_policy = BufferPolicyKind::kVoq;
    } else {
      return bad();
    }
  } else if (key == "damq_reserve_slots") {
    if (!parse_int(val, cfg.damq_reserve_slots)) return bad();
  } else if (key == "injection_rate") {
    if (!parse_double(val, cfg.injection_rate)) return bad();
  } else if (key == "packet_length") {
    if (!parse_int(val, cfg.packet_length)) return bad();
  } else if (key == "pattern") {
    if (val == "nr" || val == "uniform") {
      cfg.pattern = TrafficPattern::kUniformRandom;
    } else if (val == "bc" || val == "bitcomp") {
      cfg.pattern = TrafficPattern::kBitComplement;
    } else if (val == "tn" || val == "tornado") {
      cfg.pattern = TrafficPattern::kTornado;
    } else {
      return bad();
    }
  } else if (key == "routing") {
    if (val == "xy" || val == "dt") {
      cfg.routing = RoutingAlgorithm::kXY;
    } else if (val == "adaptive" || val == "ad") {
      cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
    } else if (val == "escape" || val == "duato") {
      cfg.routing = RoutingAlgorithm::kAdaptiveEscape;
    } else {
      return bad();
    }
  } else if (key == "protection") {
    if (val == "none") {
      cfg.protection = LinkProtection::kNone;
    } else if (val == "fec") {
      cfg.protection = LinkProtection::kFec;
    } else if (val == "e2e") {
      cfg.protection = LinkProtection::kE2e;
    } else if (val == "hbh") {
      cfg.protection = LinkProtection::kHbh;
    } else {
      return bad();
    }
  } else if (key == "enable_ac") {
    if (!parse_bool(val, cfg.enable_ac)) return bad();
  } else if (key == "ecc_detect_only") {
    if (!parse_bool(val, cfg.ecc_detect_only)) return bad();
  } else if (key == "link_error_rate") {
    if (!parse_double(val, cfg.faults.link_error_rate)) return bad();
  } else if (key == "multi_bit_fraction") {
    if (!parse_double(val, cfg.faults.multi_bit_fraction)) return bad();
  } else if (key == "rt_error_rate") {
    if (!parse_double(val, cfg.faults.rt_error_rate)) return bad();
  } else if (key == "va_error_rate") {
    if (!parse_double(val, cfg.faults.va_error_rate)) return bad();
  } else if (key == "sa_error_rate") {
    if (!parse_double(val, cfg.faults.sa_error_rate)) return bad();
  } else if (key == "rtx_error_rate") {
    if (!parse_double(val, cfg.faults.rtx_error_rate)) return bad();
  } else if (key == "handshake_error_rate") {
    if (!parse_double(val, cfg.faults.handshake_error_rate)) return bad();
  } else if (key == "duplicate_rtx_buffers") {
    if (!parse_bool(val, cfg.duplicate_rtx_buffers)) return bad();
  } else if (key == "tmr_handshaking") {
    if (!parse_bool(val, cfg.tmr_handshaking)) return bad();
  } else if (key == "deadlock_recovery") {
    if (!parse_bool(val, cfg.deadlock.enable_recovery)) return bad();
  } else if (key == "probe_threshold") {
    if (!parse_u64(val, cfg.deadlock.probe_threshold)) return bad();
  } else if (key == "probe_backoff") {
    if (!parse_u64(val, cfg.deadlock.probe_backoff)) return bad();
  } else if (key == "probe_timeout") {
    if (!parse_u64(val, cfg.deadlock.probe_timeout)) return bad();
  } else if (key == "probe_ttl") {
    int ttl = 0;
    if (!parse_int(val, ttl) || ttl < 0) return bad();
    cfg.deadlock.probe_ttl = static_cast<std::uint32_t>(ttl);
  } else if (key == "fallback_probe_failures") {
    if (!parse_int(val, cfg.deadlock.fallback_probe_failures)) return bad();
  } else if (key == "exit_block_window") {
    if (!parse_u64(val, cfg.deadlock.exit_block_window)) return bad();
  } else if (key == "dead_link") {
    // "node:dir" with dir in {N,E,S,W}.
    const auto colon = val.find(':');
    NodeId node = 0;
    Direction d;
    if (colon == std::string::npos ||
        !parse_node(val.substr(0, colon), node) ||
        !parse_dir(val.substr(colon + 1), d)) {
      return bad();
    }
    cfg.dead_links.emplace_back(node, d);
  } else if (key == "dead_router") {
    NodeId node = 0;
    if (!parse_node(val, node)) return bad();
    cfg.dead_routers.push_back(node);
  } else if (key == "link_escalation_threshold") {
    if (!parse_int(val, cfg.faults.link_escalation_threshold)) return bad();
  } else if (key == "storm_kill") {
    // "cycle:node:dir" with dir in {N,E,S,W}.
    const auto c1 = val.find(':');
    const auto c2 = c1 == std::string::npos ? std::string::npos
                                            : val.find(':', c1 + 1);
    SimConfig::LinkKill k;
    if (c2 == std::string::npos || !parse_u64(val.substr(0, c1), k.at) ||
        !parse_node(val.substr(c1 + 1, c2 - c1 - 1), k.node) ||
        !parse_dir(val.substr(c2 + 1), k.dir)) {
      return bad();
    }
    cfg.storm_kills.push_back(k);
  } else if (key == "workload") {
    if (val.empty()) return bad();
    cfg.workload_file = val;
  } else if (key == "link_stats") {
    if (!parse_bool(val, cfg.link_stats)) return bad();
  } else if (key == "run_to_drain") {
    if (!parse_bool(val, cfg.run_to_drain)) return bad();
  } else if (key == "adaptive_faults") {
    if (!parse_bool(val, cfg.adaptive_faults)) return bad();
  } else if (key == "check_invariants") {
    if (!parse_bool(val, cfg.check_invariants)) return bad();
  } else if (key == "test_mutation") {
    const auto m = parse_test_mutation(val);
    if (!m) return bad();
    cfg.test_mutation = *m;
  } else if (key == "kernel") {
    if (val == "scan") {
      cfg.force_scan_kernel = true;
    } else if (val == "event") {
      cfg.force_scan_kernel = false;
    } else {
      return bad();
    }
  } else if (key == "seed") {
    if (!parse_u64(val, cfg.seed)) return bad();
  } else if (key == "warmup_messages") {
    if (!parse_u64(val, cfg.warmup_messages)) return bad();
  } else if (key == "total_messages") {
    if (!parse_u64(val, cfg.total_messages)) return bad();
  } else if (key == "max_cycles") {
    if (!parse_u64(val, cfg.max_cycles)) return bad();
  } else {
    return "unknown config key: " + key;
  }
  return std::nullopt;
}

std::optional<std::string> apply_overrides(
    SimConfig& cfg, const std::vector<std::string>& assignments) {
  for (const auto& a : assignments) {
    if (auto err = apply_override(cfg, a)) return err;
  }
  return std::nullopt;
}

}  // namespace ftnoc
