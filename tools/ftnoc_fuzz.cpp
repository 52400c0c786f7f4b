// Fuzz harness: drives one Router network on the event kernel and one on
// the full-scan kernel in lock-step on randomized configurations. Every
// cycle it compares the two full architectural-state digests and reads the
// invariant monitor (count-and-continue mode on both networks), stopping
// at the first cycle either disagrees or reports a violation. The monitor
// includes the router's derived-state audit (check_local_invariants), so
// the oracle is: invariants, derived-state audit and scan/event lockstep
// (DESIGN.md §4.8).
//
// On a finding, the harness greedily minimizes the configuration (reset
// each override to its default, keep the reduction if the run still
// fails the same way) and emits a replayable repro file of
// apply_override-compatible key=value assignments.
//
//   ftnoc_fuzz [--runs N] [--cycles N] [--seed S] [--time-budget SEC]
//              [--out FILE] [--plant NAME] [--selftest] [--replay FILE]
//
// --selftest --plant NAME plants a known router mutation in the plant's
// habitat config and exits 0 iff the harness detects it and the emitted
// repro replays — the end-to-end proof that the oracle has teeth:
// `route_into_dead_link` (fault-blind routing on a faulted topology),
// `damq_credit_leak` (a shared_held_ decrement skipped on a DAMQ credit
// return) and `strand_waiter` (a link drain that strands registered
// deadlock waiters). `drop_window` changes no network's output, so its
// proof is a scripted router unit test instead, and the selftest refuses
// it. A malformed repro file (unknown key, invalid config, bad cycle
// count or plant name) fails --replay with exit 2, and so does a numeric
// flag that is not a whole, in-range number.
//
// --runs 0 fuzzes until the time budget ends and then exits 0. With
// --runs N > 0, a budget that ends before N configs are checked exits 3:
// the search asked for was not done.

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/invariants.hpp"
#include "noc/network.hpp"

namespace {

using ftnoc::Cycle;
using ftnoc::Network;
using ftnoc::Rng;
using ftnoc::SimConfig;
using ftnoc::TestMutation;

struct RunResult {
  bool failed = false;
  Cycle cycle = 0;        // Cycle count when the finding was detected.
  bool diverged = false;  // Digest mismatch (vs invariant violation only).
  std::string what;
};

struct Options {
  int runs = 200;
  Cycle cycles = 1500;
  std::uint64_t seed = 1;
  double time_budget_sec = 240.0;
  std::string out = "fuzz_repro.txt";
  TestMutation plant = TestMutation::kNone;
  bool selftest = false;
  std::string replay;
};

// Parses and validates a configuration given as override assignments
// applied to a default SimConfig; returns the error, if any.
std::optional<std::string> build_config(const std::vector<std::string>& ov,
                                        SimConfig& cfg) {
  if (auto err = ftnoc::apply_overrides(cfg, ov)) {
    return "bad override: " + *err;
  }
  if (auto err = cfg.validate()) return "invalid config: " + *err;
  return std::nullopt;
}

// Runs one configuration, with `plant` applied, on the event and the scan
// kernel in lock-step, stopping at the first invariant violation or
// digest mismatch.
RunResult run_pair(const std::vector<std::string>& overrides, Cycle cycles,
                   TestMutation plant) {
  RunResult res;
  SimConfig cfg;
  if (auto err = build_config(overrides, cfg)) {
    res.failed = true;
    res.what = *err;
    return res;
  }
  cfg.check_invariants = true;
  cfg.test_mutation = plant;
  SimConfig scan_cfg = cfg;
  cfg.force_scan_kernel = false;
  scan_cfg.force_scan_kernel = true;

  Network event(cfg);
  Network scan(scan_cfg);
  auto* em = event.monitor();
  auto* sm = scan.monitor();
  if (em) em->set_abort_on_violation(false);
  if (sm) sm->set_abort_on_violation(false);

  for (Cycle c = 0; c < cycles; ++c) {
    event.step();
    scan.step();
    res.cycle = event.now();
    for (const auto& [mon, kernel] :
         {std::pair{em, "event"}, std::pair{sm, "scan"}}) {
      if (mon && mon->violations() > 0) {
        res.failed = true;
        res.what = std::string(kernel) + " kernel: " + mon->first_violation();
        return res;
      }
    }
    if (event.state_digest() != scan.state_digest()) {
      res.failed = true;
      res.diverged = true;
      res.what = "scan/event state digests diverged at cycle " +
                 std::to_string(res.cycle);
      return res;
    }
  }
  return res;
}

// Fault-topology override keys that define the faulted mesh a finding ran
// on; the selftest asserts minimization preserves at least one of them.
bool is_fault_override(const std::string& o) {
  return o.rfind("dead_link=", 0) == 0 || o.rfind("dead_router=", 0) == 0 ||
         o.rfind("link_escalation_threshold=", 0) == 0 ||
         o.rfind("storm_kill=", 0) == 0 ||
         o.rfind("adaptive_faults=", 0) == 0;
}

// Randomized configuration generation. Every knob is emitted as an
// explicit override so the repro file is self-contained; generation
// retries until validate() accepts the combination.
//
// About a quarter of configs replace the injection rate with a low band
// (0.002–0.02 flits/node/cycle), where the event kernel's PEs sleep for
// long stretches between injections. That choice is drawn from `band`, a
// stream of its own, so every other field of every config is the one
// `rng` alone would give.
std::vector<std::string> random_config(Rng& rng, Rng& band) {
  std::optional<double> low_rate;
  if (band.bernoulli(0.25)) low_rate = 0.002 + 0.018 * band.next_double();
  for (;;) {
    std::vector<std::string> ov;
    auto add = [&](const std::string& k, const std::string& v) {
      ov.push_back(k + "=" + v);
    };
    add("seed", std::to_string(rng.next_u64() % 100000));
    const int w = 2 + static_cast<int>(rng.next_below(3));  // 2..4
    const int h = 2 + static_cast<int>(rng.next_below(3));  // 2..4
    add("mesh_width", std::to_string(w));
    add("mesh_height", std::to_string(h));
    if (rng.bernoulli(0.2)) add("torus", "1");
    add("num_vcs", std::to_string(2 + rng.next_below(3)));       // 2..4
    add("vc_buffer_depth", std::to_string(2 + rng.next_below(5)));  // 2..6
    add("pipeline_stages", std::to_string(1 + rng.next_below(4)));  // 1..4
    add("retransmission_depth", std::to_string(3 + rng.next_below(4)));
    add("packet_length", std::to_string(3 + rng.next_below(4)));    // 3..6
    {
      const double rate = 0.05 + 0.35 * rng.next_double();
      std::ostringstream r;
      r << low_rate.value_or(rate);
      add("injection_rate", r.str());
    }
    static const char* kProt[] = {"none", "fec", "e2e", "hbh", "hbh"};
    add("protection", kProt[rng.next_below(5)]);
    static const char* kRoute[] = {"xy", "adaptive", "escape"};
    const char* route = kRoute[rng.next_below(3)];
    // Buffer policies under the oracle: damq composes with everything;
    // voq is only admissible under deterministic XY (validate() refuses
    // other routings), so force the pairing rather than redraw.
    static const char* kBufPol[] = {"private_vc", "private_vc", "damq",
                                    "voq"};
    const char* bufpol = kBufPol[rng.next_below(4)];
    if (std::strcmp(bufpol, "voq") == 0) route = "xy";
    add("routing", route);
    if (std::strcmp(bufpol, "private_vc") != 0) {
      add("buffer_policy", bufpol);
    }
    if (std::strcmp(bufpol, "damq") == 0) {
      add("damq_reserve_slots", std::to_string(1 + rng.next_below(3)));
    }
    static const char* kPat[] = {"nr", "bc", "tn"};
    add("pattern", kPat[rng.next_below(3)]);
    if (rng.bernoulli(0.6)) {
      std::ostringstream r;
      r << (0.0005 + 0.01 * rng.next_double());
      add("link_error_rate", r.str());
    }
    if (rng.bernoulli(0.25)) add("rt_error_rate", "0.001");
    if (rng.bernoulli(0.25)) add("va_error_rate", "0.001");
    if (rng.bernoulli(0.25)) add("sa_error_rate", "0.001");
    if (rng.bernoulli(0.2)) add("rtx_error_rate", "0.001");
    if (rng.bernoulli(0.2)) add("handshake_error_rate", "0.0005");
    if (rng.bernoulli(0.3)) add("tmr_handshaking", "0");
    if (rng.bernoulli(0.2)) add("ecc_detect_only", "1");
    if (rng.bernoulli(0.2)) add("duplicate_rtx_buffers", "1");
    if (rng.bernoulli(0.15)) add("enable_ac", "0");
    if (rng.bernoulli(0.5)) {
      add("deadlock_recovery", "1");
      add("probe_threshold", std::to_string(8 + rng.next_below(57)));
      add("probe_backoff", "8");
      add("exit_block_window", "256");
    }
    // Permanent faults: dead links/routers and runtime escalation walk
    // the fault-aware routing, drain and re-home paths through the
    // oracle. Partitioning draws are rejected by validate()
    // below, which re-enters the redraw loop.
    const int nodes = w * h;
    if (rng.bernoulli(0.25)) {
      static const char* kDirs[] = {"N", "E", "S", "W"};
      const int k = 1 + static_cast<int>(rng.next_below(2));
      for (int j = 0; j < k; ++j) {
        add("dead_link", std::to_string(rng.next_below(
                             static_cast<std::uint64_t>(nodes))) +
                             ":" + kDirs[rng.next_below(4)]);
      }
    }
    if (rng.bernoulli(0.1)) {
      add("dead_router",
          std::to_string(rng.next_below(static_cast<std::uint64_t>(nodes))));
    }
    if (rng.bernoulli(0.2)) {
      add("link_escalation_threshold",
          std::to_string(1 + rng.next_below(3)));
    }
    // Fault-storm timelines: links die mid-run, walking the online
    // reconfiguration (route-epoch re-home) and drain paths under the
    // oracle. Cycles ascend (validate() requires it); partition-prone
    // draws are fine — the veto trims them at runtime identically under
    // both kernels.
    bool any_faults = false;
    if (rng.bernoulli(0.2)) {
      static const char* kDirs[] = {"N", "E", "S", "W"};
      const int k = 1 + static_cast<int>(rng.next_below(2));
      Cycle at = 100 + rng.next_below(300);
      for (int j = 0; j < k; ++j) {
        add("storm_kill",
            std::to_string(at) + ":" +
                std::to_string(
                    rng.next_below(static_cast<std::uint64_t>(nodes))) +
                ":" + kDirs[rng.next_below(4)]);
        at += 100 + rng.next_below(300);
      }
      any_faults = true;
    }
    for (const auto& o : ov) any_faults = any_faults || is_fault_override(o);
    // The non-minimal escape tier only acts on faulted fabrics; sample it
    // half the time there (and occasionally elsewhere, where it must be
    // behaviour-neutral).
    if (rng.bernoulli(any_faults ? 0.5 : 0.05)) {
      add("adaptive_faults", "1");
    }

    SimConfig probe;
    if (build_config(ov, probe)) continue;  // Eq. (1) etc. refused; redraw.
    return ov;
  }
}

// True iff the trial run failed *the same way* as the original finding:
// same kind (divergence vs invariant violation), same cycle and same
// message. Accepting any failure is how fault-topology overrides
// (dead_link / dead_router / link_escalation_threshold) used to vanish
// from minimized repros: dropping the fault override can surface an
// unrelated failure at a different cycle, the greedy pass keeps the
// smaller config, and the emitted repro no longer exercises the faulted
// mesh the fuzzer actually caught.
bool same_failure(const RunResult& trial, const RunResult& orig) {
  return trial.failed && trial.diverged == orig.diverged &&
         trial.cycle == orig.cycle && trial.what == orig.what;
}

// Greedy 1-minimization: drop each override in turn (falling back to the
// SimConfig default for that knob) and keep the smaller set whenever the
// *original* failure signature still reproduces. Matching the signature
// (not just "some failure") trades minimality for faithfulness — every
// override the final repro keeps is one the original finding needs.
std::vector<std::string> minimize(std::vector<std::string> ov,
                                  const RunResult& orig, Cycle cycles,
                                  TestMutation plant,
                                  const std::chrono::steady_clock::time_point
                                      deadline) {
  // Each pass tries every remaining override once (a kept removal leaves
  // `i` on the next candidate); passes repeat until one removes nothing.
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < ov.size();) {
      if (std::chrono::steady_clock::now() > deadline) return ov;
      std::vector<std::string> trial = ov;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
      SimConfig probe;
      if (!build_config(trial, probe) &&
          same_failure(run_pair(trial, cycles, plant), orig)) {
        ov = std::move(trial);
        shrunk = true;
      } else {
        ++i;
      }
    }
  }
  return ov;
}

void write_repro(const std::string& path, const std::vector<std::string>& ov,
                 Cycle cycles, TestMutation plant,
                 const RunResult& res) {
  std::ofstream f(path);
  f << "# ftnoc_fuzz repro — replay with: ftnoc_fuzz --replay " << path
    << "\n";
  f << "# " << res.what << "\n";
  f << "cycles=" << cycles << "\n";
  if (plant != TestMutation::kNone) {
    f << "plant=" << ftnoc::to_string(plant) << "\n";
  }
  for (const auto& o : ov) f << o << "\n";
}

// Parses a whole decimal number: no sign where T is unsigned, no trailing
// junk, no overflow.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

// Parses a cycle count (a repro's or --cycles): decimal digits only, at
// least 1, no overflow.
std::optional<Cycle> parse_cycles(std::string_view text) {
  const auto v = parse_number<Cycle>(text);
  if (!v || *v == 0) return std::nullopt;
  return v;
}

// Repro format: one key=value per line; '#' comments; the harness-level
// keys "cycles" and "plant" are consumed here, everything else goes to
// apply_override and must form a valid configuration. Returns the error
// that makes the file unusable, if any.
std::optional<std::string> read_repro(const std::string& path,
                                      std::vector<std::string>& ov,
                                      Cycle& cycles, TestMutation& plant) {
  std::ifstream f(path);
  if (!f) return "cannot read repro file";
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("cycles=", 0) == 0) {
      const auto c = parse_cycles(std::string_view(line).substr(7));
      if (!c) return "bad cycle count: " + line;
      cycles = *c;
    } else if (line.rfind("plant=", 0) == 0) {
      const auto m = ftnoc::parse_test_mutation(line.substr(6));
      if (!m) return "unknown plant: " + line;
      plant = *m;
    } else {
      ov.push_back(line);
    }
  }
  SimConfig cfg;
  return build_config(ov, cfg);
}

// The config a plant's self-test runs in: where the mutation actually
// changes behaviour. Run `i` varies only the simulation seed.
std::optional<std::vector<std::string>> plant_habitat(TestMutation plant,
                                                      int i) {
  std::vector<std::string> ov = {"seed=" + std::to_string(1000 + i),
                                 "mesh_width=4",
                                 "mesh_height=4",
                                 "vc_buffer_depth=4",
                                 "pipeline_stages=3",
                                 "packet_length=4",
                                 "protection=hbh"};
  switch (plant) {
    case TestMutation::kRouteIntoDeadLink:
      // A faulted topology where the fault-blind closed form differs from
      // the fault-aware port set, so headers wait on the dead link.
      ov.insert(ov.end(), {"num_vcs=3", "injection_rate=0.25",
                           "routing=adaptive", "dead_link=5:E"});
      return ov;
    case TestMutation::kStrandWaiter:
      // Saturating adaptive traffic with aggressive deadlock probing (so
      // output VCs carry registered waiters) and a storm timeline that
      // drains a central link every 100 cycles. A waiter whose flits have
      // not been absorbed must be re-homed off the draining port; the
      // plant leaves it. A kill only strands a waiter that exists at that
      // cycle, so about half the seeds show the plant.
      ov.insert(ov.end(),
                {"num_vcs=2", "injection_rate=0.5", "routing=adaptive",
                 "deadlock_recovery=1", "probe_threshold=8",
                 "probe_backoff=8", "exit_block_window=256",
                 "storm_kill=200:5:E", "storm_kill=300:6:E",
                 "storm_kill=400:9:E", "storm_kill=500:10:E",
                 "storm_kill=600:5:N", "storm_kill=700:6:N",
                 "storm_kill=800:9:N", "storm_kill=900:10:N"});
      return ov;
    case TestMutation::kDamqCreditLeak:
      // DAMQ shared buffering under enough load that credit returns take
      // the shared path (the leak skips the shared_held_ decrement, so the
      // sender's pool ledger drifts within a few returns).
      ov.insert(ov.end(), {"num_vcs=3", "injection_rate=0.3", "routing=xy",
                           "buffer_policy=damq", "damq_reserve_slots=1"});
      return ov;
    case TestMutation::kNone:
    case TestMutation::kDropWindow:
      break;
  }
  return std::nullopt;
}

int fuzz_main(const Options& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(opt.time_budget_sec));

  for (int i = 0; opt.runs == 0 || i < opt.runs; ++i) {
    if (std::chrono::steady_clock::now() > deadline) {
      if (opt.runs == 0) {
        std::printf("%d run(s) in the time budget, no finding\n", i);
        return 0;
      }
      std::printf("ftnoc_fuzz: time budget exhausted after %d of %d run(s); "
                  "no finding so far\n",
                  i, opt.runs);
      return opt.selftest ? 1 : 3;
    }
    const std::uint64_t run_seed =
        Rng::derive_seed(opt.seed, static_cast<std::uint64_t>(i));
    Rng rng(run_seed);
    Rng band(Rng::derive_seed(run_seed, 1));
    const std::vector<std::string> ov =
        opt.selftest ? *plant_habitat(opt.plant, i) : random_config(rng, band);
    if (std::getenv("FTNOC_FUZZ_TRACE")) {
      std::fprintf(stderr, "run %d:", i);
      for (const auto& o : ov) std::fprintf(stderr, " %s", o.c_str());
      std::fprintf(stderr, "\n");
    }
    const RunResult res = run_pair(ov, opt.cycles, opt.plant);
    if (!res.failed) continue;

    std::printf("run %d FAILED: %s\n", i, res.what.c_str());
    // Every finding stops the run, so its cycle count is the repro's.
    const Cycle rep_cycles = res.cycle;
    const auto min_ov = minimize(ov, res, rep_cycles, opt.plant, deadline);
    write_repro(opt.out, min_ov, rep_cycles, opt.plant, res);
    std::printf("repro (%zu overrides) written to %s\n", min_ov.size(),
                opt.out.c_str());

    // Prove the repro replays before claiming victory — and replays the
    // same finding, not some other failure the shrinking surfaced.
    const RunResult replayed = run_pair(min_ov, rep_cycles, opt.plant);
    if (!same_failure(replayed, res)) {
      std::printf("WARNING: minimized repro did not replay the finding\n");
      return 2;
    }
    if (opt.selftest && (opt.plant == TestMutation::kRouteIntoDeadLink ||
                         opt.plant == TestMutation::kStrandWaiter)) {
      // These plants only manifest on a faulted (or mid-run faulting)
      // mesh, so a faithful minimizer must keep the fault-topology
      // override. Losing it was exactly the old any-failure acceptance
      // bug.
      bool kept = false;
      for (const auto& o : min_ov) kept = kept || is_fault_override(o);
      if (!kept) {
        std::printf(
            "SELFTEST FAIL: minimized repro lost its fault-topology "
            "override\n");
        return 2;
      }
    }
    return opt.selftest ? 0 : 2;
  }
  std::printf("%d run(s), no finding\n", opt.runs);
  return opt.selftest ? 1 : 0;
}

int replay_main(const Options& opt) {
  std::vector<std::string> ov;
  Cycle cycles = 1500;
  TestMutation plant = opt.plant;
  if (auto err = read_repro(opt.replay, ov, cycles, plant)) {
    std::fprintf(stderr, "ftnoc_fuzz: bad repro %s: %s\n",
                 opt.replay.c_str(), err->c_str());
    return 2;
  }
  const RunResult res = run_pair(ov, cycles, plant);
  if (res.failed) {
    std::printf("reproduced: %s\n", res.what.c_str());
    return 0;
  }
  std::printf("did not reproduce\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
#if !FTNOC_ENABLE_INVARIANTS
  std::fprintf(stderr,
               "ftnoc_fuzz: built with FTNOC_INVARIANTS=OFF; digest "
               "comparison still runs but invariant findings are dark\n");
#endif
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : "";
    };
    // A numeric flag's value must be a whole, in-range number.
    auto bad = [&](const char* value, const char* want) {
      std::fprintf(stderr, "ftnoc_fuzz: bad %s '%s' (want %s)\n", a.c_str(),
                   value, want);
      return 2;
    };
    if (a == "--runs") {
      const char* text = next();
      const auto v = parse_number<int>(text);
      if (!v || *v < 0) return bad(text, "an integer >= 0");
      opt.runs = *v;
    } else if (a == "--cycles") {
      const char* text = next();
      const auto v = parse_cycles(text);
      if (!v) return bad(text, "an integer >= 1");
      opt.cycles = *v;
    } else if (a == "--seed") {
      const char* text = next();
      const auto v = parse_number<std::uint64_t>(text);
      if (!v) return bad(text, "an unsigned 64-bit integer");
      opt.seed = *v;
    } else if (a == "--time-budget") {
      const char* text = next();
      const auto v = parse_number<double>(text);
      if (!v || !std::isfinite(*v) || *v < 0) return bad(text, "seconds >= 0");
      opt.time_budget_sec = *v;
    } else if (a == "--out") {
      opt.out = next();
    } else if (a == "--plant") {
      const char* name = next();
      const auto m = ftnoc::parse_test_mutation(name);
      if (!m) {
        std::fprintf(stderr, "ftnoc_fuzz: unknown plant: %s\n", name);
        return 2;
      }
      opt.plant = *m;
    } else if (a == "--selftest") {
      opt.selftest = true;
    } else if (a == "--replay") {
      opt.replay = next();
    } else {
      std::fprintf(stderr,
                   "usage: ftnoc_fuzz [--runs N (0: until the budget)]\n"
                   "                  [--cycles N] [--seed S]\n"
                   "                  [--time-budget SEC] [--out FILE]\n"
                   "                  [--plant NAME] [--selftest]\n"
                   "                  [--replay FILE]\n");
      return 2;
    }
  }
  if (!opt.replay.empty()) return replay_main(opt);
  if (opt.selftest && !plant_habitat(opt.plant, 0)) {
    std::fprintf(stderr,
                 "ftnoc_fuzz: --selftest needs --plant route_into_dead_link, "
                 "damq_credit_leak or strand_waiter (drop_window changes no "
                 "network's output; RouterHarness unit tests cover it)\n");
    return 2;
  }
  return fuzz_main(opt);
}
