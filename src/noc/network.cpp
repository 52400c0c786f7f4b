#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"
#include "common/log.hpp"
#include "noc/digest.hpp"
#include "noc/workload.hpp"

namespace ftnoc {
namespace {
constexpr PortId kLocalPort = static_cast<PortId>(Direction::kLocal);
constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

void mix_wire(digest::Mixer& h, const Wire& w) {
  h.mix(w.flit.peek().has_value());
  if (w.flit.peek()) h.mix_flit(*w.flit.peek());
  const auto& credits = w.credit.peek();
  h.mix(credits.size());
  for (const Credit& c : credits) h.mix(static_cast<std::uint64_t>(c.vc));
  h.mix(w.nack.peek().has_value());
  if (w.nack.peek()) h.mix(static_cast<std::uint64_t>(w.nack.peek()->vc));
  h.mix(w.probe.peek().has_value());
  if (w.probe.peek()) h.mix_probe(*w.probe.peek());
  h.mix(w.activation.peek().has_value());
  if (w.activation.peek()) h.mix_activation(*w.activation.peek());
}
}

// ---------------------------------------------------------------------------
// ProcessingElement
// ---------------------------------------------------------------------------

ProcessingElement::ProcessingElement(NodeId self, const SimConfig& cfg,
                                     const Topology& topo, Wire* to_router,
                                     StatsCollector* stats, Rng rng)
    : self_(self), cfg_(cfg), wire_(to_router), stats_(stats) {
  if (cfg.injection_rate > 0.0) {
    source_.emplace(topo, self, cfg.pattern, cfg.injection_rate,
                    cfg.packet_length, rng);
  }
  lanes_.resize(static_cast<std::size_t>(cfg.num_vcs));
  for (auto& lane : lanes_) lane.credits = cfg.vc_buffer_depth;
}

void ProcessingElement::enqueue_packet(std::vector<Flit> flits, bool front) {
  FTNOC_CHECK(!flits.empty());
  if (front) {
    pending_.push_front(std::move(flits));
  } else {
    pending_.push_back(std::move(flits));
  }
  if (due_slot_ != nullptr) *due_slot_ = 0;
}

void ProcessingElement::hold_for_e2e(const std::vector<Flit>& flits) {
  e2e_buffer_.emplace(flits.front().packet_id, flits);
}

void ProcessingElement::e2e_ack(PacketId pid) {
  e2e_buffer_.erase(pid);
}

void ProcessingElement::e2e_nack(PacketId pid) {
  const auto it = e2e_buffer_.find(pid);
  if (it == e2e_buffer_.end()) return;  // Already acknowledged (stale NACK).
  // Retransmit a clean copy: re-encode every codeword from the ground-truth
  // payload and inject ahead of new traffic. The original birth cycle is
  // preserved so the measured latency includes the full recovery.
  std::vector<Flit> copy = it->second;
  for (auto& f : copy) f.codeword = ecc::encode(f.payload);
  if (stats_) stats_->on_e2e_retransmit();
  enqueue_packet(std::move(copy), /*front=*/true);
}

bool ProcessingElement::step(Cycle now, PacketId& next_packet_id,
                             bool router_in_recovery) {
  // Credits returned by the router's local input buffers (the wire's
  // tick-time summary byte spares the vector touch on credit-free cycles).
  if (wire_->cur_mask & Wire::kCurCredit) {
    for (const Credit& c : wire_->credit.read()) {
      auto& lane = lanes_.at(c.vc);
      ++lane.credits;
      FTNOC_CHECK(lane.credits <= cfg_.vc_buffer_depth);
    }
  }

  // Generate new traffic.
  if (source_) {
    if (auto pkt = source_->maybe_generate(now, next_packet_id)) {
      if (stats_) stats_->on_packet_created();
      if (cfg_.protection == LinkProtection::kE2e) hold_for_e2e(*pkt);
      pending_.push_back(std::move(*pkt));
    }
  }

  // Move waiting packets into free lanes (one wormhole per local VC) —
  // unless the router is recovering from a deadlock, which admits no new
  // packets.
  for (std::size_t v = 0; !router_in_recovery && v < lanes_.size(); ++v) {
    if (pending_.empty()) break;
    auto& lane = lanes_[v];
    if (lane.busy || !lane.flits.empty()) continue;
    // Under voq, lane v only carries packets whose destination column maps
    // to class v; take the oldest such packet (plain FIFO otherwise).
    auto it = pending_.begin();
    if (cfg_.buffer_policy == BufferPolicyKind::kVoq) {
      while (it != pending_.end() &&
             voq_class(it->front().dest, cfg_.mesh_width, cfg_.num_vcs) !=
                 static_cast<int>(v)) {
        ++it;
      }
      if (it == pending_.end()) continue;
    }
    auto pkt = std::move(*it);
    pending_.erase(it);
    lane.busy = true;
    for (auto& f : pkt) {
      f.vc = static_cast<VcId>(v);
      lane.flits.push_back(std::move(f));
    }
  }

  const bool sent = send_flit(now);
  if (due_slot_ != nullptr) *due_slot_ = next_due(now);
  return sent;
}

Cycle ProcessingElement::next_due(Cycle now) const {
  for (const auto& lane : lanes_) {
    if (!lane.flits.empty() && lane.credits > 0) return now + 1;
  }
  if (!pending_.empty()) {
    for (const auto& lane : lanes_) {
      if (!lane.busy && lane.flits.empty()) return now + 1;
    }
  }
  return source_ ? source_->next_due() : kNever;
}

bool ProcessingElement::send_flit(Cycle now) {
  // Send at most one flit per cycle over the PE-to-router channel.
  if (!wire_->flit.can_write()) return false;
  const int nv = static_cast<int>(lanes_.size());
  for (int off = 0; off < nv; ++off) {
    const int v = (send_rotation_ + off) % nv;
    auto& lane = lanes_[static_cast<std::size_t>(v)];
    if (lane.flits.empty() || lane.credits <= 0) continue;
    Flit f = lane.flits.front();
    lane.flits.pop_front();
    --lane.credits;
    // Stamp the network-injection time on the whole packet the moment its
    // header enters the network (the wire delivers it next cycle, hence
    // now + 1 — which also keeps 0 available as the "not injected yet"
    // sentinel). An E2E retransmission keeps the first attempt's stamp.
    if (is_head(f.type) && f.inject_cycle == 0) {
      const Cycle stamp = now + 1;
      for (auto& rest : lane.flits) rest.inject_cycle = stamp;
      f.inject_cycle = stamp;
      const auto held = e2e_buffer_.find(f.packet_id);
      if (held != e2e_buffer_.end()) {
        for (auto& h : held->second) h.inject_cycle = stamp;
      }
    }
    wire_->flit.write(f);
    if (lane.flits.empty()) lane.busy = false;
    send_rotation_ = (v + 1) % nv;
    return true;
  }
  return false;
}

std::uint64_t ProcessingElement::state_digest() const {
  digest::Mixer h;
  h.mix(static_cast<std::uint64_t>(self_));
  h.mix(static_cast<std::uint64_t>(send_rotation_));
  h.mix(lanes_.size());
  for (const auto& lane : lanes_) {
    h.mix(lane.busy);
    h.mix(static_cast<std::uint64_t>(lane.credits));
    h.mix(lane.flits.size());
    for (const Flit& f : lane.flits) h.mix_flit(f);
  }
  h.mix(pending_.size());
  for (const auto& pkt : pending_) {
    h.mix(pkt.size());
    for (const Flit& f : pkt) h.mix_flit(f);
  }
  // e2e_buffer_ is unordered; fold entry hashes order-independently.
  h.mix(e2e_buffer_.size());
  std::uint64_t sum = 0;
  for (const auto& [pid, flits] : e2e_buffer_) {
    digest::Mixer e;
    e.mix(pid);
    e.mix(flits.size());
    for (const Flit& f : flits) e.mix_flit(f);
    sum += e.value();
  }
  h.mix(sum);
  return h.value();
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

Network::Network(const SimConfig& cfg)
    : cfg_(cfg),
      topo_(cfg.mesh_width, cfg.mesh_height, cfg.torus),
      root_rng_(cfg.seed),
      faults_(cfg.faults, Rng(cfg.seed ^ 0xFA017EC7ULL)) {
  if (auto err = cfg_.validate()) {
    FTNOC_ERROR("invalid SimConfig: " + *err);
    FTNOC_CHECK(false && "invalid SimConfig");
  }
  const int n = topo_.num_nodes();
  eject_state_.resize(static_cast<std::size_t>(n));

  routers_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    routers_.push_back(std::make_unique<Router>(i, cfg_, topo_, &faults_,
                                                &meter_, &stats_));
  }

  if (cfg_.check_invariants) {
#if FTNOC_ENABLE_INVARIANTS
    monitor_ = std::make_unique<InvariantMonitor>(cfg_);
    for (auto& r : routers_) r->set_monitor(monitor_.get());
#else
    FTNOC_WARN(
        "check_invariants requested but the monitor hooks were compiled "
        "out (-DFTNOC_INVARIANTS=OFF); running unchecked");
#endif
  }

  // Wires. link_wires_[node*4 + d] is the directed wire leaving `node`
  // through direction d (flit/probe/activation forward; credit/NACK back).
  link_wires_.resize(static_cast<std::size_t>(n) * 4);
  local_wires_.resize(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    for (int d = 0; d < 4; ++d) {
      if (topo_.has_neighbor(i, static_cast<Direction>(d))) {
        link_wires_[static_cast<std::size_t>(i) * 4 + d] =
            std::make_unique<Wire>();
      }
    }
    local_wires_[i] = std::make_unique<Wire>();
  }

  for (NodeId i = 0; i < n; ++i) {
    for (int d = 0; d < 4; ++d) {
      const auto dir = static_cast<Direction>(d);
      Wire* out = link_wires_[static_cast<std::size_t>(i) * 4 + d].get();
      Wire* in = nullptr;
      if (auto nb = topo_.neighbor(i, dir)) {
        const int back = static_cast<int>(opposite(dir));
        in = link_wires_[static_cast<std::size_t>(*nb) * 4 + back].get();
      }
      routers_[i]->connect(static_cast<PortId>(d), in, out);
    }
    routers_[i]->connect(kLocalPort, local_wires_[i].get(), nullptr);
    routers_[i]->set_eject_fn([this, i](const Flit& f, Cycle now) {
      on_eject(i, f, now);
    });
  }

  pes_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    pes_.push_back(std::make_unique<ProcessingElement>(
        i, cfg_, topo_, local_wires_[i].get(), &stats_, root_rng_.fork()));
  }

  // Hard faults: kill both directions of each configured physical link
  // (static outages, pre-programmed in the VA link-state tables per §4.2),
  // mirrored into the topology so route() switches to fault-aware mode.
  for (const auto& [node, dir] : cfg_.dead_links) {
    const auto nb = topo_.neighbor(node, dir);
    if (!nb) continue;  // Already a mesh edge; nothing to fail.
    topo_.fail_link(node, dir);
    routers_[node]->fail_link(static_cast<PortId>(dir));
    routers_[*nb]->fail_link(static_cast<PortId>(opposite(dir)));
  }
  // Dead routers: every attached link dies with the node, and the node's
  // PE is never stepped (it can neither inject nor receive). The router
  // and PE objects are still constructed so wiring, ids and the RNG fork
  // order stay identical to the fault-free build.
  for (const NodeId node : cfg_.dead_routers) {
    for (int d = 0; d < 4; ++d) {
      const auto dir = static_cast<Direction>(d);
      const auto nb = topo_.neighbor(node, dir);
      if (!nb || !topo_.link_alive(node, dir)) continue;
      routers_[node]->fail_link(static_cast<PortId>(d));
      routers_[*nb]->fail_link(static_cast<PortId>(opposite(dir)));
    }
    topo_.fail_router(node);
  }

  // Kernel selection (DESIGN.md §4.10).
  scan_kernel_ = cfg_.force_scan_kernel;
  if (!scan_kernel_) {
    const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
    for (auto& slot : wheel_) slot.assign(words, 0);
    const std::size_t nwires = link_wires_.size() + local_wires_.size();
    live_wire_mask_.assign((nwires + 63) / 64, 0);
    tx_occ_cache_.assign(static_cast<std::size_t>(n), 0);
    rtx_occ_cache_.assign(static_cast<std::size_t>(n), 0);
    // Everybody gets one initial step at cycle 0; routers that stay
    // quiescent simply never re-arm (a dead node's router among them).
    auto& slot0 = wheel_[0];
    for (NodeId i = 0; i < n; ++i) slot0[i >> 6] |= 1ull << (i & 63);
    // Every PE is due at cycle 0 too; its first step arms the next.
    pe_due_.assign(static_cast<std::size_t>(n), 0);
    for (NodeId i = 0; i < n; ++i) pes_[i]->set_due_slot(&pe_due_[i]);
  }

  // Per-link analytics (DESIGN.md §4.14). Allocated only when asked for:
  // the default path must not touch a byte it didn't before.
  if (cfg_.link_stats) {
    link_fwd_.assign(link_wires_.size(), 0);
    link_stall_.assign(link_wires_.size(), 0);
  }

  // Workload ingestion (DESIGN.md §4.14): parse + expand into TraceRecords
  // and hand them to the replay path. A malformed workload is a config
  // error, caught here where the node count is known.
  if (cfg_.has_workload()) {
    std::string werr;
    std::vector<TraceRecord> records =
        cfg_.workload_file.empty()
            ? load_workload_text(cfg_.workload_text, n, &werr)
            : load_workload_file(cfg_.workload_file, n, &werr);
    if (!werr.empty()) {
      FTNOC_ERROR("invalid workload: " + werr);
      FTNOC_CHECK(false && "invalid workload");
    }
    load_trace(std::move(records));
  }
}

int Network::hop_distance(NodeId a, NodeId b) const {
  const Coord ca = topo_.coord_of(a);
  const Coord cb = topo_.coord_of(b);
  // Manhattan distance; for a torus the wrap-around path may be shorter,
  // but the E2E control path is routed minimally either way.
  int dx = std::abs(ca.x - cb.x);
  int dy = std::abs(ca.y - cb.y);
  if (topo_.torus()) {
    dx = std::min(dx, topo_.width() - dx);
    dy = std::min(dy, topo_.height() - dy);
  }
  return dx + dy;
}

void Network::on_eject(NodeId dest, const Flit& f, Cycle now) {
  auto& state = eject_state_[dest];
  EjectRecord& rec = state[f.packet_id];
  ++rec.flits;

  // Payload oracle: decode what is actually on the wires and compare with
  // the ground truth the source encoded.
  if (cfg_.protection == LinkProtection::kE2e) {
    meter_.charge(power::EnergyEvent::kEccCheck);
  }
  const ecc::DecodeResult r = ecc::decode(f.codeword);
  const bool flit_bad =
      r.status == ecc::DecodeStatus::kUncorrectable || r.data != f.payload ||
      (cfg_.ecc_detect_only && r.status != ecc::DecodeStatus::kClean);
  if (flit_bad) rec.bad = true;
  if (r.status == ecc::DecodeStatus::kCorrected &&
      cfg_.protection == LinkProtection::kE2e) {
    stats_.on_link_single_corrected();
  }

  if (!is_tail(f.type)) return;

  // An incomplete message (dropped flits that were never replayed, e.g.
  // after a lost NACK) is corrupt even if every delivered flit is clean.
  // The intended length is the tail's sequence number + 1, not the global
  // packet_length knob: trace/workload packets carry their own lengths.
  const bool packet_bad =
      rec.bad || rec.flits != static_cast<int>(f.seq) + 1;
  state.erase(f.packet_id);

  if (cfg_.protection == LinkProtection::kE2e) {
    const Cycle delay = static_cast<Cycle>(hop_distance(dest, f.src)) + 1;
    if (packet_bad) {
      // Request a retransmission from the source; the message is not
      // delivered yet.
      edge_events_.emplace(now + delay,
                           EdgeEvent{f.src, f.packet_id, /*is_nack=*/true});
      return;
    }
    edge_events_.emplace(now + delay,
                         EdgeEvent{f.src, f.packet_id, /*is_nack=*/false});
  }

  if (packet_bad) stats_.on_unprotected_error();
  stats_.on_message_ejected(now, f.birth_cycle, f.inject_cycle, packet_bad);
  if (delivery_listener_) delivery_listener_(dest, f, now);
}

void Network::fire_due_events() {
  while (!edge_events_.empty() && edge_events_.begin()->first <= now_) {
    const EdgeEvent ev = edge_events_.begin()->second;
    edge_events_.erase(edge_events_.begin());
    if (ev.is_nack) {
      pes_[ev.target]->e2e_nack(ev.pid);
    } else {
      pes_[ev.target]->e2e_ack(ev.pid);
    }
  }
}

PacketId Network::inject_packet(NodeId src, NodeId dest, int length) {
  const PacketId pid = next_packet_id_++;
  auto flits =
      TrafficSource::build_packet(pid, src, dest, length, now_, nullptr);
  stats_.on_packet_created();
  if (cfg_.protection == LinkProtection::kE2e) pes_[src]->hold_for_e2e(flits);
  pes_[src]->enqueue_packet(std::move(flits));
  return pid;
}

void Network::load_trace(std::vector<TraceRecord> records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    FTNOC_CHECK(records[i].cycle >= now_);
    FTNOC_CHECK(i == 0 || records[i].cycle >= records[i - 1].cycle);
    FTNOC_CHECK(records[i].src < topo_.num_nodes());
    FTNOC_CHECK(records[i].dest < topo_.num_nodes());
  }
  trace_ = std::move(records);
  trace_next_ = 0;
}

double Network::tx_buffer_fraction() const {
  long long occ = 0;
  long long slots = 0;
  for (const auto& r : routers_) {
    occ += r->tx_buffer_occupancy();
    slots += r->tx_buffer_slots();
  }
  return slots ? static_cast<double>(occ) / static_cast<double>(slots) : 0.0;
}

double Network::rtx_buffer_fraction() const {
  long long occ = 0;
  long long slots = 0;
  for (const auto& r : routers_) {
    occ += r->rtx_buffer_occupancy();
    slots += r->rtx_buffer_slots();
  }
  return slots ? static_cast<double>(occ) / static_cast<double>(slots) : 0.0;
}

void Network::step() {
  if (scan_kernel_) {
    step_scan();
  } else {
    step_event();
  }
}

bool Network::try_kill_link(NodeId n, Direction dir, bool storm) {
  const auto nb = topo_.neighbor(n, dir);
  if (!nb || !topo_.link_alive(n, dir)) return false;
  // Partition veto: the topology already reflects every kill accepted
  // earlier this same cycle (fail_link is applied per acceptance, below),
  // so a batch of same-cycle requests is vetoed against the accepted set,
  // not against the pristine pre-batch topology.
  if (topo_.would_partition(n, dir)) return false;  // Veto: limp on.
  topo_.fail_link(n, dir);
  if (storm) {
    stats_.on_storm_link_killed();
  } else {
    stats_.on_link_escalated();
  }
  routers_[n]->begin_link_drain(static_cast<PortId>(dir), now_);
  routers_[*nb]->begin_link_drain(static_cast<PortId>(opposite(dir)), now_);
  if (!scan_kernel_) {
    // A granted kill puts both endpoints back on the schedule until their
    // drains complete.
    schedule(n, now_ + 1);
    schedule(*nb, now_ + 1);
  }
  return true;
}

void Network::fire_storm_kills() {
  // Both kernels call this unconditionally every cycle (Network::step is
  // never skipped), so the storm timeline fires at identical cycles under
  // scan and event execution. Vetoed kills are skipped, never retried —
  // exactly the escalation path's limp-on behaviour.
  while (next_storm_kill_ < cfg_.storm_kills.size() &&
         cfg_.storm_kills[next_storm_kill_].at <= now_) {
    const auto& k = cfg_.storm_kills[next_storm_kill_++];
    try_kill_link(k.node, k.dir, /*storm=*/true);
  }
}

void Network::release_due_trace() {
  // Trace replay: release the records due this cycle into their source
  // PEs' queues (injection still obeys local-port credit flow control).
  while (trace_next_ < trace_.size() &&
         trace_[trace_next_].cycle <= now_) {
    const TraceRecord& r = trace_[trace_next_++];
    if (!topo_.router_alive(r.src)) {
      // A hard-dead source can never drive its injection wire; queueing
      // the packet at its PE would leak it forever (and wedge
      // run_to_drain). Count it and move on — mirrors how packets *to* a
      // dead router are dropped as unreachable en route.
      stats_.on_dead_source_drop();
      continue;
    }
    inject_packet(r.src, r.dest, r.length);
  }
}

void Network::step_scan() {
  fire_due_events();
  release_due_trace();
  // "No new packets are allowed to enter the transmission buffers that are
  // involved in the deadlock recovery" (§3.2.1), enforced transitively
  // with a chip-wide wired-OR "recovery in progress" line: while ANY
  // router recovers, every PE stops *starting* packets (in-flight packets
  // keep streaming). Without it, sources far from the deadlock keep
  // refilling the slack that absorption creates and a saturated region
  // gridlocks at population == capacity, where Eq. (1) no longer holds.
  for (NodeId i = 0; i < static_cast<NodeId>(pes_.size()); ++i) {
    if (!topo_.router_alive(i)) continue;  // Dead node: PE is off.
    pes_[i]->step(now_, next_packet_id_,
                  recovery_line_ || routers_[i]->in_recovery());
  }
  for (auto& r : routers_) r->step(now_);
  // Fault-storm timeline (§4.12): configured kills fire before the
  // escalation poll so a storm cycle and an organic escalation compose in
  // a fixed order.
  fire_storm_kills();
  // Runtime escalation (§4.9): promote links whose receivers report a
  // sustained uncorrectable-error streak to hard-dead — unless the kill
  // would partition the live mesh, in which case the link limps on (the
  // streak re-arms and re-requests). Polled in ascending node/port order
  // so both router implementations see identical escalation sequences.
  if (cfg_.faults.link_escalation_threshold > 0) {
    for (NodeId i = 0; i < static_cast<NodeId>(routers_.size()); ++i) {
      const std::uint8_t reqs = routers_[i]->take_escalation_requests();
      if (reqs == 0) continue;
      for (int d = 0; d < 4; ++d) {
        if ((reqs & (1u << d)) == 0) continue;
        try_kill_link(i, static_cast<Direction>(d), /*storm=*/false);
      }
    }
  }
  // Buffer-utilization sampling scans every router; sample_buffers drops
  // pre-measurement samples anyway, so skip the scan entirely until the
  // warmup ends.
  if (stats_.measuring()) {
    stats_.sample_buffers(tx_buffer_fraction(), rtx_buffer_fraction());
  }

  // The wired-OR recovery line can only be asserted when deadlock recovery
  // exists at all; skip the router scan otherwise.
  recovery_line_ = false;
  if (cfg_.deadlock.enable_recovery) {
    for (const auto& r : routers_) {
      if (r->in_recovery()) {
        recovery_line_ = true;
        break;
      }
    }
  }

  for (auto& w : link_wires_) {
    if (w) w->tick();
  }
  for (auto& w : local_wires_) w->tick();
  if (cfg_.link_stats) accumulate_link_stats();
#if FTNOC_ENABLE_INVARIANTS
  // After the wire ticks everything in flight is visible in a channel's
  // current value, so the structural walks see a settled snapshot.
  if (monitor_) run_invariant_walks();
#endif
  ++now_;
}

void Network::accumulate_link_stats() {
  if (!stats_.measuring()) return;
  // Post-tick, a wire's cur_mask reflects exactly what the consumer can
  // read next cycle — including under the event kernel, where a settled
  // wire recomputed cur_mask = 0 at its final tick before leaving the
  // live list. A readable flit means the link carried traffic this cycle;
  // an idle link whose receiver still buffers flits from it is stalled
  // (the wormhole is blocked downstream — the congestion signal the
  // heatmaps plot).
  for (std::size_t wid = 0; wid < link_wires_.size(); ++wid) {
    const Wire* w = link_wires_[wid].get();
    if (!w) continue;
    if (w->cur_mask & Wire::kCurFlit) {
      ++link_fwd_[wid];
      continue;
    }
    const auto dir = static_cast<Direction>(wid & 3);
    const auto nb = topo_.neighbor(static_cast<NodeId>(wid >> 2), dir);
    if (!nb) continue;  // No wire without a neighbor; belt and braces.
    const auto back = static_cast<PortId>(opposite(dir));
    int occ = 0;
    for (int v = 0; v < cfg_.num_vcs; ++v) {
      occ += routers_[*nb]->input_buffer_size(
          back, static_cast<VcId>(v));
    }
    if (occ > 0) ++link_stall_[wid];
  }
}

void Network::schedule(NodeId n, Cycle due) {
  if (due >= now_ + kWheelSize) {
    far_due_[due].push_back(n);
    return;
  }
  auto& slot = wheel_[due & (kWheelSize - 1)];
  slot[n >> 6] |= 1ull << (n & 63);
}

void Network::mark_wire_live(std::uint32_t wid) {
  if ((live_wire_mask_[wid >> 6] >> (wid & 63)) & 1ull) return;
  live_wire_mask_[wid >> 6] |= 1ull << (wid & 63);
  live_wires_.push_back(wid);
}

// The event kernel. Byte-identical to step_scan() by construction:
//  * a router is stepped at cycle t iff a signal written at t-1 is readable
//    on one of its wires this cycle (the writer's wake masks), its own
//    retained state demands it (retick — the internal half of the
//    quiescent() predicate), or its one exact timer (own-probe GC) is due;
//  * every step the scan kernel would *not* fast-path away falls in that
//    set, and extra steps hit the quiescent fast path, which is a pinned
//    no-op (no RNG draws, charges, stats or arbiter movement);
//  * wires hold a signal for exactly one cycle, so only wires with
//    something in flight need ticking — an untouched wire's tick is a
//    no-op by construction;
//  * a PE is stepped only when due: next cycle while it can send or start
//    a pending packet, at a credit its router returned, at an enqueue, or
//    at its source's armed cycle. Sources draw their injection coins
//    ahead (TrafficSource), so a skipped step draws nothing the scan
//    kernel's step would have, and a step outside those cases is a no-op.

void Network::step_event() {
  fire_due_events();
  release_due_trace();
  for (NodeId i = 0; i < static_cast<NodeId>(pes_.size()); ++i) {
    if (pe_due_[i] > now_) continue;
    if (!topo_.router_alive(i)) {  // Dead node: PE is off.
      pe_due_[i] = kNever;
      continue;
    }
    if (pes_[i]->step(now_, next_packet_id_,
                      recovery_line_ || routers_[i]->in_recovery())) {
      // The PE drove the injection wire: the router consumes next cycle.
      schedule(i, now_ + 1);
      mark_wire_live(local_wire_id(i));
    }
  }

  // Spill far timers that moved inside the wheel horizon.
  while (!far_due_.empty() &&
         far_due_.begin()->first < now_ + kWheelSize) {
    const auto it = far_due_.begin();
    auto& slot = wheel_[it->first & (kWheelSize - 1)];
    for (const NodeId n : it->second) slot[n >> 6] |= 1ull << (n & 63);
    far_due_.erase(it);
  }

  // Pop this cycle's bucket; step the due routers in ascending node order
  // (the scan's order — the shared fault-injector RNG, stats and energy
  // meter make the within-cycle order observable).
  stepped_.clear();
  auto& slot = wheel_[now_ & (kWheelSize - 1)];
  for (std::size_t w = 0; w < slot.size(); ++w) {
    std::uint64_t bits = slot[w];
    slot[w] = 0;
    while (bits != 0) {
      const auto i = static_cast<NodeId>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      Router* const r = routers_[i].get();
      r->step(now_);
      stepped_.push_back(i);

      const WakeInfo wi = r->take_wake_info();
      if (wi.retick) {
        schedule(i, now_ + 1);
      } else if (wi.timer != 0) {
        // A timer can land in the past when its condition armed late
        // (e.g. the agent's probe stopped being outstanding after the
        // GC deadline already passed); fire it next cycle.
        schedule(i, wi.timer > now_ ? wi.timer : now_ + 1);
      }
      for (std::uint8_t m = wi.wrote_fwd; m != 0;
           m &= static_cast<std::uint8_t>(m - 1)) {
        const int d = std::countr_zero(static_cast<unsigned>(m));
        const auto nb = topo_.neighbor(i, static_cast<Direction>(d));
        FTNOC_DCHECK(nb.has_value());
        mark_wire_live(static_cast<std::uint32_t>(i) * 4 +
                       static_cast<std::uint32_t>(d));
        if (nb) schedule(*nb, now_ + 1);
      }
      for (std::uint8_t m = wi.wrote_back; m != 0;
           m &= static_cast<std::uint8_t>(m - 1)) {
        const int d = std::countr_zero(static_cast<unsigned>(m));
        if (d == kLocalPort) {
          // Credit back to the PE: it must read it next cycle, before the
          // wire's next tick drops it.
          mark_wire_live(local_wire_id(i));
          pe_due_[i] = std::min(pe_due_[i], now_ + 1);
          continue;
        }
        const auto nb = topo_.neighbor(i, static_cast<Direction>(d));
        FTNOC_DCHECK(nb.has_value());
        if (!nb) continue;
        mark_wire_live(static_cast<std::uint32_t>(*nb) * 4 +
                       static_cast<std::uint32_t>(
                           opposite(static_cast<Direction>(d))));
        schedule(*nb, now_ + 1);
      }

      // Only a stepped router can change its occupancy terms.
      const int txo = r->tx_buffer_occupancy();
      const int rxo = r->rtx_buffer_occupancy();
      tx_occ_total_ += txo - tx_occ_cache_[i];
      tx_occ_cache_[i] = txo;
      rtx_occ_total_ += rxo - rtx_occ_cache_[i];
      rtx_occ_cache_[i] = rxo;
    }
  }

  // Fault-storm timeline (§4.12): fires at the same pre-escalation point
  // as in step_scan — Network::step runs every cycle under both kernels,
  // so the schedules coincide exactly.
  fire_storm_kills();
  // Runtime escalation (§4.9): only stepped routers can have raised a
  // request (the poll clears the set every cycle a router runs), and
  // stepped_ is ascending — the scan's visit order. A granted kill puts
  // both endpoints back on the schedule until their drains complete.
  if (cfg_.faults.link_escalation_threshold > 0) {
    for (const NodeId i : stepped_) {
      const std::uint8_t reqs = routers_[i]->take_escalation_requests();
      if (reqs == 0) continue;
      for (int d = 0; d < 4; ++d) {
        if ((reqs & (1u << d)) == 0) continue;
        try_kill_link(i, static_cast<Direction>(d), /*storm=*/false);
      }
    }
  }

  if (stats_.measuring()) {
    if (tx_slots_total_ < 0) {
      tx_slots_total_ = 0;
      rtx_slots_total_ = 0;
      for (const auto& r : routers_) {
        tx_slots_total_ += r->tx_buffer_slots();
        rtx_slots_total_ += r->rtx_buffer_slots();
      }
    }
    // Integer sums are order-independent, so the incrementally maintained
    // totals divide to the scan's exact doubles.
    stats_.sample_buffers(
        tx_slots_total_ ? static_cast<double>(tx_occ_total_) /
                              static_cast<double>(tx_slots_total_)
                        : 0.0,
        rtx_slots_total_ ? static_cast<double>(rtx_occ_total_) /
                               static_cast<double>(rtx_slots_total_)
                         : 0.0);
  }

  // Wired-OR recovery line: a recovering router always re-ticks itself
  // (in_recovery is part of the retick predicate) and recovery is entered
  // and exited only inside step(), so the stepped set covers every
  // possible asserter.
  recovery_line_ = false;
  if (cfg_.deadlock.enable_recovery) {
    for (const NodeId i : stepped_) {
      if (routers_[i]->in_recovery()) {
        recovery_line_ = true;
        break;
      }
    }
  }

  // Tick only wires with signals in flight; settled wires leave the list.
  std::size_t keep = 0;
  for (std::size_t k = 0; k < live_wires_.size(); ++k) {
    const std::uint32_t wid = live_wires_[k];
    if (wire_by_id(wid)->tick_live()) {
      live_wires_[keep++] = wid;
    } else {
      live_wire_mask_[wid >> 6] &= ~(1ull << (wid & 63));
    }
  }
  live_wires_.resize(keep);
  if (cfg_.link_stats) accumulate_link_stats();
#if FTNOC_ENABLE_INVARIANTS
  if (monitor_) run_invariant_walks();
#endif
  ++now_;
}

std::uint64_t Network::state_digest() const {
  digest::Mixer h;
  h.mix(static_cast<std::uint64_t>(now_));
  h.mix(next_packet_id_);
  h.mix(recovery_line_);
  for (const auto& r : routers_) h.mix(r->state_digest());
  for (const auto& w : link_wires_) {
    h.mix(w != nullptr);
    if (w) mix_wire(h, *w);
  }
  for (const auto& w : local_wires_) mix_wire(h, *w);
  for (const auto& pe : pes_) h.mix(pe->state_digest());
  h.mix(edge_events_.size());
  for (const auto& [cyc, ev] : edge_events_) {
    h.mix(static_cast<std::uint64_t>(cyc));
    h.mix(static_cast<std::uint64_t>(ev.target));
    h.mix(ev.pid);
    h.mix(ev.is_nack);
  }
  for (const auto& m : eject_state_) {
    h.mix(m.size());
    std::uint64_t sum = 0;
    for (const auto& [pid, rec] : m) {
      digest::Mixer e;
      e.mix(pid);
      e.mix(rec.bad);
      e.mix(static_cast<std::uint64_t>(rec.flits));
      sum += e.value();
    }
    h.mix(sum);
  }
  return h.value();
}

void Network::run_invariant_walks() {
  for (auto& r : routers_) r->check_local_invariants(now_);

  // No flit ever travels a hard-failed link. Keyed off the *router's* dead
  // bit, not the topology: a link draining toward escalation is still
  // legitimately carrying its last wormhole, and the router only reports
  // the port dead once its barrel proves the wire clear.
  for (NodeId i = 0; i < topo_.num_nodes(); ++i) {
    for (int d = 0; d < 4; ++d) {
      const Wire* w = link_wires_[static_cast<std::size_t>(i) * 4 + d].get();
      if (!w || !w->flit.peek()) continue;
      if (routers_[i]->link_failed(static_cast<PortId>(d))) {
        monitor_->fail(InvariantId::kDeadLinkTraversal, now_, i,
                       static_cast<PortId>(d), w->flit.peek()->vc,
                       "flit in flight on a hard-failed link");
      }
    }
  }

  // Flit conservation: live instances live in router state (input buffers,
  // ST registers, barrel pending regions) and on inter-router wires. Local
  // wires are excluded on both sides of the ledger: a flit enters it only
  // when the router accepts it from the PE and leaves it at ejection.
  long long live = 0;
  for (const auto& r : routers_) live += r->live_flit_count();
  for (const auto& w : link_wires_) {
    if (w && w->flit.peek()) ++live;
  }
  monitor_->check_flit_conservation(now_, live);

  // Credit conservation, one directed link and VC at a time. The sender
  // side holds free credits plus credits bound to staged/rolled-back
  // flits; in-flight instances sit on the forward flit wire (each
  // transmitted flit owns a downstream slot) and the reverse credit wire;
  // the receiver side is plain buffer occupancy.
  const int n = topo_.num_nodes();
  for (NodeId i = 0; i < n; ++i) {
    for (int d = 0; d < 4; ++d) {
      const Wire* w = link_wires_[static_cast<std::size_t>(i) * 4 + d].get();
      if (!w) continue;
      const auto nb = topo_.neighbor(i, static_cast<Direction>(d));
      FTNOC_CHECK(nb.has_value());
      const auto back =
          static_cast<PortId>(opposite(static_cast<Direction>(d)));
      for (VcId v = 0; v < cfg_.num_vcs; ++v) {
        int total = routers_[i]->held_credits(static_cast<PortId>(d), v);
        if (w->flit.peek() && w->flit.peek()->vc == v) ++total;
        for (const Credit& c : w->credit.peek()) {
          if (c.vc == v) ++total;
        }
        total += routers_[*nb]->input_buffer_size(back, v);
        // Under damq the per-VC budget is elastic: K reserved plus however
        // many shared slots the sender currently holds for this VC.
        monitor_->check_credit_sum(
            now_, i, d, v, total,
            routers_[i]->credit_budget(static_cast<PortId>(d), v));
      }
    }
    // The PE -> router injection link: the sender-side counter is the PE
    // lane's credit balance.
    const Wire* w = local_wires_[i].get();
    for (VcId v = 0; v < cfg_.num_vcs; ++v) {
      int total = pes_[i]->lane_credits(v);
      if (w->flit.peek() && w->flit.peek()->vc == v) ++total;
      for (const Credit& c : w->credit.peek()) {
        if (c.vc == v) ++total;
      }
      total += routers_[i]->input_buffer_size(kLocalPort, v);
      monitor_->check_credit_sum(now_, i, kLocalPort, v, total,
                                 cfg_.vc_buffer_depth);
    }
  }
}

}  // namespace ftnoc
