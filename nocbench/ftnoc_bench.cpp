// ftnoc_bench: the repository benchmark (nocbench/README.md).
//
//   ftnoc_bench --workload NAME --seed N --seconds S --trace 0|1
//               --digests FILE [--trace-out FILE]
//   ftnoc_bench --record FILE --seeds FIRST-LAST
//   ftnoc_bench --selftest
//
// A run repeats one workload's fixed amount of simulated work through the
// public API (Simulator, Network, load_workload_text, sweep::to_jsonl) for
// --seconds of host time, times the calls from outside and gates every
// simulation on a digest of its statistics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
// traced run gives the per-layer ones and writes a Chrome trace-event file.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "noc/simulator.hpp"
#include "noc/workload.hpp"
#include "power/energy_model.hpp"
#include "sweep/jsonl.hpp"

namespace {

using namespace ftnoc;
using Clock = std::chrono::steady_clock;
using power::EnergyEvent;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Inputs derived from --seed
// ---------------------------------------------------------------------------

/// SplitMix64. The benchmark draws its inputs from its own generator so
/// that a change to the simulator's Rng cannot change what it is fed.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnvBasis) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr const char* kHbhLoaded = "hbh_loaded_8x8";
constexpr const char* kSparse = "sparse_32x32";
constexpr const char* kFaulted = "faulted_replay_8x8";
constexpr std::array<const char*, 3> kWorkloads = {kHbhLoaded, kSparse,
                                                   kFaulted};

/// Every run starts empty (no warm-up window), so the meter and the stats
/// cover the whole run; the simulator seed is derived from the benchmark
/// seed and a per-workload salt.
SimConfig base_config(std::uint64_t seed, std::string_view workload) {
  SimConfig c;
  c.seed = SplitMix{seed ^ fnv1a(workload)}.next();
  c.warmup_messages = 0;
  return c;
}

/// The paper's platform (DSN'06 §2.2): 8x8 mesh, XY, uniform random
/// traffic below saturation, hop-by-hop retransmission at a 1e-3 link
/// error rate. VA and SA upsets at 1e-4 give the Allocation Comparator
/// work; it only runs a check when an allocation is upset.
SimConfig hbh_loaded(std::uint64_t seed, std::uint64_t messages) {
  SimConfig c = base_config(seed, kHbhLoaded);
  c.injection_rate = 0.25;
  c.protection = LinkProtection::kHbh;
  c.faults.link_error_rate = 1e-3;
  c.faults.va_error_rate = 1e-4;
  c.faults.sa_error_rate = 1e-4;
  c.total_messages = messages;
  c.max_cycles = messages;  // ~4x the cycles the run needs.
  return c;
}

/// A large, mostly idle fabric: the event kernel's wake wheel and live-wire
/// list carry the run, and construction is the largest of the three.
SimConfig sparse(std::uint64_t seed, std::uint64_t messages) {
  SimConfig c = base_config(seed, kSparse);
  c.mesh_width = 32;
  c.mesh_height = 32;
  c.injection_rate = 0.01;
  c.faults.link_error_rate = 0.0;
  c.total_messages = messages;
  c.max_cycles = messages * 2;  // ~5x the cycles the run needs.
  return c;
}

/// East link k of the fault_degradation stagger on an 8x8 mesh: column
/// 1 + k % 6 of row k. At most one cut per row and every adjacent column
/// pair keeps six intact row edges, so no subset of the eight sites
/// partitions the mesh.
NodeId stagger_site(int k) { return static_cast<NodeId>(k * 8 + 1 + k % 6); }

/// Repeated many-to-one hotspot bursts on 8x8, replayed to drain under
/// minimal-adaptive routing with deadlock recovery, two static dead links
/// and two mid-run storm kills. Each phase, every other node streams two
/// 32-flit transfers at the hotspot. `phases` scales the work; the
/// benchmark runs kFaultedPhases. (All-to-all phases are left out: this
/// routing does not reliably drain them, see README.md.)
SimConfig faulted_replay(std::uint64_t seed, int phases) {
  SimConfig c = base_config(seed, kFaulted);
  SplitMix g{c.seed};
  constexpr int kPeriod = 4000;  // Cycles between phase starts.
  // The hotspot is one of the four central nodes, which the mesh's
  // symmetry makes equivalent, so every seed offers the same load.
  const NodeId hot =
      static_cast<NodeId>((3 + g.below(2)) * 8 + 3 + g.below(2));
  std::string t = "packet_flits 4\n";
  for (int p = 0; p < phases; ++p) {
    const std::uint64_t at = static_cast<std::uint64_t>(p) * kPeriod;
    t += "many_to_one hot" + std::to_string(p) +
         " start=" + std::to_string(at + g.below(kPeriod / 2)) +
         " dest=" + std::to_string(hot) +
         " flits=32 count=2 period=200 stagger=" +
         std::to_string(5 + g.below(5)) + "\n";
  }
  c.workload_text = std::move(t);

  // Four distinct stagger sites: two dead from the start, two killed
  // mid-run, in cycle order.
  std::array<int, 8> sites = {0, 1, 2, 3, 4, 5, 6, 7};
  for (int i = 0; i < 4; ++i) {
    std::swap(sites[i], sites[i + g.below(8 - i)]);
  }
  c.dead_links = {{stagger_site(sites[0]), Direction::kEast},
                  {stagger_site(sites[1]), Direction::kEast}};
  const Cycle span = static_cast<Cycle>(phases) * kPeriod / 2;
  Cycle k1 = 1 + g.below(span);
  Cycle k2 = 1 + g.below(span);
  if (k2 < k1) std::swap(k1, k2);
  c.storm_kills = {{k1, stagger_site(sites[2]), Direction::kEast},
                   {k2, stagger_site(sites[3]), Direction::kEast}};

  c.injection_rate = 0.0;
  c.run_to_drain = true;
  c.routing = RoutingAlgorithm::kMinimalAdaptive;
  c.adaptive_faults = true;
  c.deadlock.enable_recovery = true;
  c.deadlock.probe_threshold = 32;
  c.deadlock.probe_backoff = 17;
  c.total_messages = 1;  // Unused in drain mode; validate() wants > warm-up.
  c.max_cycles = static_cast<Cycle>(phases) * kPeriod * 5;
  return c;
}

// Fixed work per workload: ~0.3-0.6 s of host time per simulation on a
// shared 4-vCPU x86 VM. Short simulations put many samples in a run, and
// the median of many short samples moves least between runs on a noisy
// host (README.md, "Steadiness").
constexpr std::uint64_t kHbhMessages = 30'000;
constexpr std::uint64_t kSparseMessages = 4'000;
constexpr int kFaultedPhases = 6;

std::optional<SimConfig> workload_config(std::string_view name,
                                         std::uint64_t seed) {
  if (name == kHbhLoaded) return hbh_loaded(seed, kHbhMessages);
  if (name == kSparse) return sparse(seed, kSparseMessages);
  if (name == kFaulted) return faulted_replay(seed, kFaultedPhases);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// One simulation and its correctness gate
// ---------------------------------------------------------------------------

using MeterCounts = std::array<std::uint64_t, power::kNumEnergyEvents>;

struct Outcome {
  SimResults r;
  MeterCounts counts{};
  std::uint64_t state = 0;  ///< Network::state_digest() after the run.
  double setup_s = 0.0;     ///< Simulator construction.
  double run_s = 0.0;       ///< Simulator::run().
};

MeterCounts meter_counts(const power::EnergyMeter& m) {
  MeterCounts c{};
  for (int e = 0; e < power::kNumEnergyEvents; ++e) {
    c[e] = m.count(static_cast<EnergyEvent>(e));
  }
  return c;
}

std::uint64_t count(const Outcome& o, EnergyEvent e) {
  return o.counts[static_cast<int>(e)];
}

std::string result_line(const SimConfig& cfg, const SimResults& r) {
  sweep::PointResult pr;
  pr.label = "nocbench";
  pr.config = cfg;
  pr.results = r;
  return sweep::to_jsonl(pr);
}

/// Digest of the simulated statistics: every SimResults field the JSONL
/// record carries (cycles, created, ejected, drops, latencies, fault and
/// deadlock counters) plus every EnergyMeter count.
std::uint64_t stats_digest(const SimConfig& cfg, const Outcome& o) {
  std::uint64_t h = fnv1a(result_line(cfg, o.r));
  for (const std::uint64_t c : o.counts) {
    h = fnv1a(std::string_view(reinterpret_cast<const char*>(&c), sizeof c),
              h);
  }
  return h;
}

Outcome timed_run(const SimConfig& cfg) {
  Outcome o;
  const auto t0 = Clock::now();
  Simulator sim(cfg);
  const auto t1 = Clock::now();
  o.r = sim.run();
  o.run_s = seconds_since(t1);
  o.setup_s = std::chrono::duration<double>(t1 - t0).count();
  o.counts = meter_counts(sim.network().meter());
  o.state = sim.network().state_digest();
  return o;
}

/// The gate. A run fails when it did not complete, when a drain run's
/// accounting does not close, or when its digest differs from `expected`.
std::vector<std::string> gate(const SimConfig& cfg, const Outcome& o,
                              std::uint64_t expected) {
  std::vector<std::string> why;
  if (!o.r.completed) why.push_back("run did not complete");
  if (cfg.run_to_drain &&
      o.r.packets_created != o.r.messages_ejected + o.r.unreachable_drops) {
    why.push_back("drain accounting open: created " +
                  std::to_string(o.r.packets_created) + " != ejected " +
                  std::to_string(o.r.messages_ejected) + " + unreachable " +
                  std::to_string(o.r.unreachable_drops));
  }
  const std::uint64_t d = stats_digest(cfg, o);
  if (d != expected) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "digest %016" PRIx64 " != %016" PRIx64, d,
                  expected);
    why.push_back(buf);
  }
  return why;
}

/// Pinned digests, one "workload seed digest" line each.
using DigestTable = std::map<std::pair<std::string, std::uint64_t>,
                             std::uint64_t>;

std::optional<DigestTable> read_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  DigestTable t;
  std::string name;
  std::uint64_t seed = 0;
  std::string hex;
  while (in >> name >> seed >> hex) {
    t[{name, seed}] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  if (!in.eof()) return std::nullopt;
  return t;
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// In-memory trace: spans at each layer boundary the benchmark calls
/// into, meter/stats samples at the same boundaries, written at exit as
/// Chrome trace-event JSON (chrome://tracing or ui.perfetto.dev).
class Tracer {
 public:
  /// `pid` is the trace-event process id every event carries; the process
  /// is named `run_id`, so all spans of one run share one id.
  Tracer(std::string run_id, int pid)
      : run_id_(std::move(run_id)), pid_(pid), t0_(Clock::now()) {}

  /// Opens a span; returns its index for close(). The parent is the
  /// innermost span still open.
  std::size_t open(const char* name) {
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return spans_.size() - 1;
  }
  void close(std::size_t i) {
    spans_[i].end_ns = now_ns();
    stack_.pop_back();
  }
  std::int64_t duration_ns(std::size_t i) const {
    return spans_[i].end_ns - spans_[i].start_ns;
  }

  void sample(Network& net) {
    const StatsCollector& s = net.stats();
    samples_.push_back({now_ns(), net.now(), meter_counts(net.meter()),
                        s.packets_created(), s.messages_ejected(),
                        s.probes_sent(), s.recoveries_entered(),
                        s.packets_rerouted()});
  }

  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  struct Sample {
    std::int64_t ts_ns;
    Cycle cycle;
    MeterCounts meter;
    std::uint64_t created, ejected, probes, recoveries, rerouted;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }

  std::string run_id_;
  int pid_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<Sample> samples_;
};

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "{\"otherData\":{\"run_id\":\"%s\"},\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
               "\"args\":{\"name\":\"%s\"}}",
               run_id_.c_str(), pid_, run_id_.c_str());
  for (const Span& s : spans_) {
    std::fprintf(f, ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                 s.name, pid_, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    // Step spans, the bulk of the file, leave their parent ("simulate")
    // to the nesting; every other span names it.
    if (std::strcmp(s.name, "step") == 0) {
      std::fprintf(f, "}");
    } else {
      std::fprintf(f, ",\"args\":{\"run_id\":\"%s\",\"parent\":\"%s\"}}",
                   run_id_.c_str(), s.parent < 0 ? "" : spans_[s.parent].name);
    }
  }
  for (const Sample& s : samples_) {
    const double ts = static_cast<double>(s.ts_ns) * 1e-3;
    std::fprintf(f, ",\n{\"name\":\"meter\",\"ph\":\"C\",\"pid\":%d,"
                    "\"ts\":%.3f,\"args\":{",
                 pid_, ts);
    for (int e = 0; e < power::kNumEnergyEvents; ++e) {
      std::fprintf(f, "%s\"%s\":%" PRIu64, e ? "," : "",
                   power::to_string(static_cast<EnergyEvent>(e)),
                   s.meter[e]);
    }
    std::fprintf(f,
                 "}},\n{\"name\":\"stats\",\"ph\":\"C\",\"pid\":%d,"
                 "\"ts\":%.3f,\"args\":{\"cycle\":%" PRIu64
                 ",\"created\":%" PRIu64 ",\"ejected\":%" PRIu64
                 ",\"probes\":%" PRIu64 ",\"recoveries\":%" PRIu64
                 ",\"rerouted\":%" PRIu64 "}}",
                 pid_, ts, static_cast<std::uint64_t>(s.cycle), s.created,
                 s.ejected, s.probes, s.recoveries, s.rerouted);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

struct TracedOutcome {
  Outcome o;
  std::vector<std::int64_t> step_ns;  ///< One per Network::step().
  Cycle recovery_cycles = 0;  ///< Cycles ending with a router in recovery.
  std::uint64_t records = 0;  ///< Trace records the workload compiled to.
  double compile_s = 0.0;     ///< load_workload_text.
  double build_s = 0.0;       ///< Network construction.
  double jsonl_s = 0.0;       ///< sweep::to_jsonl of the result.
  bool run_stepped_on = false;  ///< Simulator::run() had steps left over.
};

/// Counters are sampled at every setup boundary and every kSampleSteps-th
/// step boundary, which keeps the trace file a few MB on the longest run.
constexpr Cycle kSampleSteps = 500;

/// The stepping loop of Simulator::run(), run from outside with a span
/// around every Network::step(). The workload is compiled and loaded
/// through the calls Network's constructor makes, so each gets its own
/// span. Simulator::run() is called once the loop has ended, only to
/// condense the results (it steps nothing more; `run_stepped_on` checks).
TracedOutcome traced_run(const SimConfig& cfg, Tracer& tr) {
  TracedOutcome t;
  SimConfig net_cfg = cfg;
  net_cfg.workload_text.clear();
  const std::size_t root = tr.open("run");

  std::vector<TraceRecord> records;
  if (cfg.has_workload()) {
    const std::size_t s = tr.open("load_workload_text");
    std::string err;
    records = load_workload_text(cfg.workload_text, cfg.num_nodes(), &err);
    tr.close(s);
    t.compile_s = static_cast<double>(tr.duration_ns(s)) * 1e-9;
    if (!err.empty()) {
      std::fprintf(stderr, "invalid workload: %s\n", err.c_str());
      std::exit(2);
    }
  }
  t.records = records.size();

  std::size_t s = tr.open("Network");
  Simulator sim(net_cfg);
  tr.close(s);
  t.build_s = static_cast<double>(tr.duration_ns(s)) * 1e-9;
  Network& net = sim.network();
  tr.sample(net);

  if (!records.empty()) {
    s = tr.open("load_trace");
    net.load_trace(std::move(records));
    tr.close(s);
    tr.sample(net);
  }

  // Simulator::run()'s loop for warmup_messages == 0.
  StatsCollector& stats = net.stats();
  const bool drain_mode = cfg.run_to_drain && net.trace_loaded();
  auto done = [&] {
    if (drain_mode) {
      return net.trace_drained() &&
             stats.packets_created() ==
                 stats.messages_ejected() + stats.unreachable_drops();
    }
    return stats.messages_ejected() >= cfg.total_messages;
  };
  const int nodes = cfg.num_nodes();
  stats.begin_measurement(0);
  net.meter().reset();
  const std::size_t sim_span = tr.open("simulate");
  while (net.now() < cfg.max_cycles && !done()) {
    s = tr.open("step");
    net.step();
    tr.close(s);
    t.step_ns.push_back(tr.duration_ns(s));
    for (NodeId n = 0; n < nodes; ++n) {
      if (net.router_base(n).in_recovery()) {
        ++t.recovery_cycles;
        break;
      }
    }
    if (net.now() % kSampleSteps == 0) tr.sample(net);
  }
  tr.close(sim_span);
  t.o.run_s = static_cast<double>(tr.duration_ns(sim_span)) * 1e-9;
  tr.sample(net);

  // run() resets the meter when warmup_messages == 0 and derives the two
  // energy fields from it; keep the loop's meter and recompute them.
  const power::EnergyMeter meter = net.meter();
  const Cycle end = net.now();
  t.o.r = sim.run();
  t.run_stepped_on = net.now() != end;
  net.meter() = meter;
  t.o.r.total_energy_uj = meter.total_pj() * 1e-6;
  t.o.r.energy_per_message_nj =
      t.o.r.measured_messages
          ? meter.total_nj() / static_cast<double>(t.o.r.measured_messages)
          : 0.0;
  t.o.counts = meter_counts(meter);
  t.o.state = net.state_digest();

  s = tr.open("to_jsonl");
  const std::string line = result_line(cfg, t.o.r);
  tr.close(s);
  t.jsonl_s = static_cast<double>(tr.duration_ns(s)) * 1e-9;
  tr.close(root);
  return t;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of integer samples.
double percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1,
                       q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Tallies attempts against the gate. The first simulation of a seed
/// with no pinned digest defines the digest the later ones must match.
struct Ledger {
  std::optional<std::uint64_t> expected;
  int attempted = 0;
  int failed = 0;

  bool check(const SimConfig& cfg, const Outcome& o, const char* what) {
    ++attempted;
    if (!expected) expected = stats_digest(cfg, o);
    const auto why = gate(cfg, o, *expected);
    for (const auto& w : why) std::fprintf(stderr, "FAIL %s: %s\n", what,
                                           w.c_str());
    if (!why.empty()) ++failed;
    return why.empty();
  }
};

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// The reference kernel's time at the speed the benchmark reports in: its
/// median on the 4-vCPU Xeon VM where the benchmark was tuned.
constexpr double kRefNominalS = 0.05;

volatile std::uint64_t reference_sink = 0;  // Keeps the kernel's result live.

/// Times a fixed sort-and-search kernel that belongs to the benchmark (no
/// simulator code runs in it). The host this benchmark runs on is a shared
/// VM whose speed drifts by more than the bounds within minutes; scaling
/// each simulation's host time by kRefNominalS / (reference time measured
/// around it) cancels part of that drift (README.md, "Steadiness").
double reference_s() {
  const auto t0 = Clock::now();
  SplitMix g{42};
  std::vector<std::uint32_t> v(200'000);
  for (auto& x : v) x = static_cast<std::uint32_t>(g.next());
  std::sort(v.begin(), v.end());
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto key = static_cast<std::uint32_t>(g.next());
    acc += static_cast<std::uint64_t>(
        std::lower_bound(v.begin(), v.end(), key) - v.begin());
  }
  reference_sink = acc;
  return seconds_since(t0);
}

/// Brackets timed work with reference measurements: scale() returns the
/// factor for the work done since the previous call.
class HostSpeed {
 public:
  HostSpeed() : prev_(reference_s()) {}
  double scale() {
    const double next = reference_s();
    const double k = kRefNominalS / (0.5 * (prev_ + next));
    prev_ = next;
    return k;
  }

 private:
  double prev_;
};

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// Setup-only constructions after each timed run. Construction takes a
/// few ms, and its time depends on the heap state the previous run left,
/// so setup_s is a median over samples spread through the whole run.
constexpr int kSetupOnlyPerRun = 2;
constexpr int kMinTimedRuns = 3;

int run_untraced(const std::string& name, const SimConfig& cfg,
                 double seconds, Ledger& ledger) {
  std::vector<double> run_s;
  std::vector<double> raw_run_s;
  std::vector<double> setup_s;
  std::vector<double> rc_per_s;
  std::vector<double> hops_per_s;
  const auto routers = static_cast<double>(cfg.num_nodes());
  HostSpeed speed;
  const auto t0 = Clock::now();
  while (static_cast<int>(run_s.size()) < kMinTimedRuns ||
         seconds_since(t0) < seconds) {
    const Outcome o = timed_run(cfg);
    std::array<double, kSetupOnlyPerRun> setup_only{};
    for (double& t : setup_only) {
      const auto t1 = Clock::now();
      { Simulator sim(cfg); }
      t = seconds_since(t1);
    }
    const double k = speed.scale();
    ledger.check(cfg, o, name.c_str());
    raw_run_s.push_back(o.run_s);
    run_s.push_back(o.run_s * k);
    rc_per_s.push_back(static_cast<double>(o.r.cycles) *
                       routers / run_s.back());
    hops_per_s.push_back(
        static_cast<double>(count(o, EnergyEvent::kLinkTraversal)) /
        run_s.back());
    setup_s.push_back(o.setup_s * k);
    for (const double t : setup_only) setup_s.push_back(t * k);
  }
  std::fprintf(stderr, "%s: %zu timed runs; raw host run_s median %.4f:",
               name.c_str(), run_s.size(), median(raw_run_s));
  for (const double s : raw_run_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");
  print_result(ledger.failed == 0, ledger.attempted, ledger.failed,
               {{"run_s", median(run_s), "s"},
                {"router_cycles_per_s", median(rc_per_s), "1/s"},
                {"flit_hops_per_s", median(hops_per_s), "1/s"},
                {"setup_s", median(setup_s), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return ledger.failed == 0 ? 0 : 1;
}

int run_traced(const std::string& name, std::uint64_t seed,
               const SimConfig& cfg, double seconds,
               const std::string& trace_out, Ledger& ledger) {
  // Kernel A/B: alternate untraced event and scan runs for the budget.
  SimConfig scan_cfg = cfg;
  scan_cfg.force_scan_kernel = true;
  std::vector<double> event_s;
  std::vector<double> scan_s;
  HostSpeed speed;
  const auto t0 = Clock::now();
  do {
    const Outcome ev = timed_run(cfg);
    event_s.push_back(ev.run_s * speed.scale());
    ledger.check(cfg, ev, "event kernel");
    const Outcome sc = timed_run(scan_cfg);
    scan_s.push_back(sc.run_s * speed.scale());
    // The scan run is held to the event run's digest and final state.
    if (ledger.check(cfg, sc, "scan kernel") && sc.state != ev.state) {
      std::fprintf(stderr, "FAIL scan kernel: state digest differs\n");
      ++ledger.failed;
    }
  } while (seconds_since(t0) < seconds);

  char run_id[96];
  std::snprintf(run_id, sizeof run_id, "%s-seed%" PRIu64 "-%d", name.c_str(),
                seed, static_cast<int>(getpid()));
  Tracer tr(run_id, static_cast<int>(getpid()));
  const TracedOutcome t = traced_run(cfg, tr);
  const double k = speed.scale();
  if (ledger.check(cfg, t.o, "traced run") && t.run_stepped_on) {
    std::fprintf(stderr, "FAIL traced run: loop stopped early\n");
    ++ledger.failed;
  }
  if (!trace_out.empty() && !tr.write(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 2;
  }

  const Outcome& o = t.o;
  const double untraced_s = median(event_s);
  const double rcycles =
      static_cast<double>(o.r.cycles) * static_cast<double>(cfg.num_nodes());
  const auto rc = static_cast<double>(count(o, EnergyEvent::kRouteCompute));
  const auto va = static_cast<double>(count(o, EnergyEvent::kVcAllocation));
  const auto sa = static_cast<double>(count(o, EnergyEvent::kSwAllocation));
  const auto xbar =
      static_cast<double>(count(o, EnergyEvent::kCrossbarTraversal));
  const auto link = static_cast<double>(count(o, EnergyEvent::kLinkTraversal));
  const auto replays =
      static_cast<double>(count(o, EnergyEvent::kRetransmission));
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto c = [&](EnergyEvent e) { return u(count(o, e)); };
  const bool correct = ledger.failed == 0;
  print_result(
      correct, ledger.attempted, ledger.failed,
      {
          {"kernel.step_ns_p50", percentile(t.step_ns, 0.50) * k, "ns"},
          {"kernel.step_ns_p99", percentile(t.step_ns, 0.99) * k, "ns"},
          {"kernel.step_samples", u(t.step_ns.size()), "count"},
          {"kernel.ns_per_router_cycle", untraced_s * 1e9 / rcycles, "ns"},
          {"kernel.ns_per_flit_hop", ratio(untraced_s * 1e9, link), "ns"},
          {"kernel.event_over_scan", untraced_s / median(scan_s), "ratio"},
          {"kernel.recovery_line_frac",
           ratio(u(t.recovery_cycles), u(o.r.cycles)), "ratio"},
          {"trace.overhead_frac", (o.run_s * k - untraced_s) / untraced_s,
           "ratio"},
          {"router.rc_ops", rc, "count"},
          {"router.va_rounds", va, "count"},
          {"router.sa_rounds", sa, "count"},
          {"router.xbar_flits", xbar, "count"},
          {"router.buffer_writes", c(EnergyEvent::kBufferWrite), "count"},
          {"router.va_rounds_per_header", ratio(va, rc), "ratio"},
          {"router.sa_rounds_per_flit", ratio(sa, xbar), "ratio"},
          {"router.tx_buffer_util", o.r.tx_buffer_utilization, "ratio"},
          {"rtx.writes", c(EnergyEvent::kRtxBufferWrite), "count"},
          {"rtx.replays", replays, "count"},
          {"rtx.nacks", c(EnergyEvent::kNackSignal), "count"},
          {"rtx.replay_ratio", ratio(replays, link), "ratio"},
          {"rtx.buffer_util", o.r.rtx_buffer_utilization, "ratio"},
          {"ecc.checks", c(EnergyEvent::kEccCheck), "count"},
          {"ecc.corrected", u(o.r.link_single_corrected), "count"},
          {"ac.checks", c(EnergyEvent::kAcCheck), "count"},
          {"deadlock.probes_sent", u(o.r.probes_sent), "count"},
          {"deadlock.probe_hops", c(EnergyEvent::kProbeHop), "count"},
          {"deadlock.probes_discarded", u(o.r.probes_discarded), "count"},
          {"deadlock.confirmed", u(o.r.deadlocks_confirmed), "count"},
          {"deadlock.recoveries", u(o.r.recoveries_entered), "count"},
          {"deadlock.flits_absorbed", u(o.r.flits_absorbed), "count"},
          {"deadlock.probe_yield",
           ratio(u(o.r.deadlocks_confirmed), u(o.r.probes_sent)), "ratio"},
          {"fault.packets_rerouted", u(o.r.packets_rerouted), "count"},
          {"fault.storm_kills", u(o.r.links_storm_killed), "count"},
          {"fault.unreachable_drops", u(o.r.unreachable_drops), "count"},
          {"fault.dead_source_drops", u(o.r.dead_source_drops), "count"},
          {"workload.compile_s", t.compile_s * k, "s"},
          {"workload.records", u(t.records), "count"},
          {"network.build_s", t.build_s * k, "s"},
          {"output.jsonl_us", t.jsonl_s * 1e6 * k, "us"},
      });
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --record and --selftest
// ---------------------------------------------------------------------------

int record(const std::string& path, std::uint64_t first, std::uint64_t last) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) return 2;
  for (const char* name : kWorkloads) {
    for (std::uint64_t seed = first; seed <= last; ++seed) {
      const SimConfig cfg = *workload_config(name, seed);
      const Outcome o = timed_run(cfg);
      const std::uint64_t d = stats_digest(cfg, o);
      if (!gate(cfg, o, d).empty()) {
        std::fprintf(stderr, "%s seed %" PRIu64 " fails the gate\n", name,
                     seed);
        std::fclose(f);
        return 1;
      }
      std::fprintf(f, "%s %" PRIu64 " %016" PRIx64 "\n", name, seed, d);
      std::fflush(f);
      std::fprintf(stderr, "%s seed %" PRIu64 ": %" PRIu64 " cycles %.2f s\n",
                   name, seed, static_cast<std::uint64_t>(o.r.cycles),
                   o.run_s);
    }
  }
  return std::fclose(f) == 0 ? 0 : 2;
}

/// FNV-1a of faulted_replay(1, kFaultedPhases).workload_text: pins the
/// generator's output byte for byte.
constexpr std::uint64_t kFaultedTextSeed1 = 0x405eff9d83f82c1a;

int selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++bad;
  };

  // The traced loop reproduces Simulator::run() field for field.
  const std::vector<std::pair<const char*, SimConfig>> shorts = {
      {kHbhLoaded, hbh_loaded(3, 3'000)},
      {kSparse, sparse(3, 1'500)},
      {kFaulted, faulted_replay(3, 1)},
  };
  for (const auto& [name, cfg] : shorts) {
    const Outcome ref = timed_run(cfg);
    Tracer tr("selftest", 1);
    const TracedOutcome t = traced_run(cfg, tr);
    expect(result_line(cfg, ref.r) == result_line(cfg, t.o.r),
           std::string(name) + ": traced SimResults == Simulator::run()");
    expect(ref.counts == t.o.counts && ref.state == t.o.state,
           std::string(name) + ": traced meter and state == Simulator::run()");
    expect(!t.run_stepped_on && t.step_ns.size() == ref.r.cycles,
           std::string(name) + ": one traced span per simulated cycle");
    expect(ref.r.completed, std::string(name) + ": short config completes");
    SimConfig scan_cfg = cfg;
    scan_cfg.force_scan_kernel = true;
    const Outcome scan = timed_run(scan_cfg);
    expect(stats_digest(cfg, scan) == stats_digest(cfg, ref) &&
               scan.state == ref.state,
           std::string(name) + ": scan kernel == event kernel");
  }

  // The faulted generator is byte-for-byte deterministic per seed.
  const SimConfig a = faulted_replay(1, kFaultedPhases);
  const SimConfig b = faulted_replay(1, kFaultedPhases);
  const SimConfig other = faulted_replay(2, kFaultedPhases);
  const auto kills = [](const SimConfig& c) {
    std::vector<std::tuple<Cycle, NodeId, Direction>> k;
    for (const auto& s : c.storm_kills) k.emplace_back(s.at, s.node, s.dir);
    return k;
  };
  expect(a.workload_text == b.workload_text && a.seed == b.seed &&
             a.dead_links == b.dead_links && kills(a) == kills(b),
         "faulted generator: same seed, same input");
  expect(a.workload_text != other.workload_text,
         "faulted generator: another seed, another input");
  const std::uint64_t text_hash = fnv1a(a.workload_text);
  char buf[96];
  std::snprintf(buf, sizeof buf, "faulted generator: seed 1 text %016" PRIx64,
                text_hash);
  expect(text_hash == kFaultedTextSeed1, buf);

  // A seed never used in tuning completes the full faulted workload.
  const SimConfig fresh = faulted_replay(0x5EEDF00D, kFaultedPhases);
  const Outcome o = timed_run(fresh);
  expect(gate(fresh, o, stats_digest(fresh, o)).empty() &&
             o.r.links_storm_killed == 2,
         "faulted_replay_8x8 seed 0x5EEDF00D drains with both storm kills");
  return bad == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

constexpr const char* kUsage =
    "usage: ftnoc_bench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                   --digests FILE [--trace-out FILE]\n"
    "       ftnoc_bench --record FILE --seeds FIRST-LAST\n"
    "       ftnoc_bench --selftest\n"
    "workloads: hbh_loaded_8x8 sparse_32x32 faulted_replay_8x8\n";

bool parse_u64(const char* s, std::uint64_t& out) {
  if (!s || !*s) return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      args[key] = "1";
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
  }
  if (args.count("--selftest")) return selftest();

  if (args.count("--record")) {
    const std::string range = args["--seeds"];
    const auto dash = range.find('-');
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    if (dash == std::string::npos ||
        !parse_u64(range.substr(0, dash).c_str(), first) ||
        !parse_u64(range.substr(dash + 1).c_str(), last) || last < first) {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
    return record(args["--record"], first, last);
  }

  const std::string name = args["--workload"];
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  const std::string trace = args["--trace"];
  if (!parse_u64(args["--seed"].c_str(), seed) ||
      !parse_u64(args["--seconds"].c_str(), seconds) ||
      (trace != "0" && trace != "1") || !args.count("--digests")) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::optional<SimConfig> cfg = workload_config(name, seed);
  if (!cfg) {
    std::fprintf(stderr, "unknown workload '%s'\n%s", name.c_str(), kUsage);
    return 2;
  }
  const std::optional<DigestTable> pinned = read_digests(args["--digests"]);
  if (!pinned) {
    std::fprintf(stderr, "cannot read digests from %s\n",
                 args["--digests"].c_str());
    return 2;
  }

  Ledger ledger;
  if (const auto it = pinned->find({name, seed}); it != pinned->end()) {
    ledger.expected = it->second;
  }
  const auto secs = static_cast<double>(seconds);
  return trace == "1"
             ? run_traced(name, seed, *cfg, secs, args["--trace-out"], ledger)
             : run_untraced(name, *cfg, secs, ledger);
}
