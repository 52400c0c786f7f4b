// Unit tests for flit construction and the synthetic traffic sources.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"

namespace ftnoc {
namespace {

TEST(Flit, MakeFlitEncodesPayload) {
  const Flit f = make_flit(FlitType::kHead, 7, 1, 2, 0, 100, 0xABCDULL);
  EXPECT_EQ(ecc::decode(f.codeword).data, 0xABCDULL);
  EXPECT_EQ(f.birth_cycle, 100u);
  EXPECT_TRUE(is_head(f.type));
  EXPECT_FALSE(is_tail(f.type));
}

TEST(Flit, HeadTailPredicates) {
  EXPECT_TRUE(is_head(FlitType::kHeadTail));
  EXPECT_TRUE(is_tail(FlitType::kHeadTail));
  EXPECT_TRUE(is_tail(FlitType::kTail));
  EXPECT_FALSE(is_head(FlitType::kBody));
  EXPECT_FALSE(is_tail(FlitType::kBody));
}

TEST(Flit, DescribeMentionsPacketAndEndpoints) {
  const Flit f = make_flit(FlitType::kTail, 9, 3, 5, 3, 0, 0);
  const std::string d = f.describe();
  EXPECT_NE(d.find("pkt=9"), std::string::npos);
  EXPECT_NE(d.find("3->5"), std::string::npos);
}

TEST(TrafficPacket, StructureOfFourFlitPacket) {
  const auto flits = TrafficSource::build_packet(1, 2, 3, 4, 50, nullptr);
  ASSERT_EQ(flits.size(), 4u);
  EXPECT_EQ(flits[0].type, FlitType::kHead);
  EXPECT_EQ(flits[1].type, FlitType::kBody);
  EXPECT_EQ(flits[2].type, FlitType::kBody);
  EXPECT_EQ(flits[3].type, FlitType::kTail);
  for (std::uint8_t i = 0; i < 4; ++i) {
    EXPECT_EQ(flits[i].seq, i);
    EXPECT_EQ(flits[i].src, 2);
    EXPECT_EQ(flits[i].dest, 3);
    EXPECT_EQ(flits[i].birth_cycle, 50u);
    EXPECT_EQ(ecc::decode(flits[i].codeword).status,
              ecc::DecodeStatus::kClean);
  }
}

TEST(TrafficPacket, SingleFlitPacketIsHeadTail) {
  const auto flits = TrafficSource::build_packet(1, 0, 1, 1, 0, nullptr);
  ASSERT_EQ(flits.size(), 1u);
  EXPECT_EQ(flits[0].type, FlitType::kHeadTail);
}

TEST(Destinations, UniformRandomNeverSelf) {
  Topology t(8, 8, false);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const NodeId src = static_cast<NodeId>(i % 64);
    const NodeId d = pick_destination(t, TrafficPattern::kUniformRandom, src,
                                      rng);
    EXPECT_NE(d, src);
    EXPECT_LT(d, 64);
  }
}

TEST(Destinations, UniformRandomCoversAllNodes) {
  Topology t(4, 4, false);
  Rng rng(7);
  std::map<NodeId, int> hits;
  for (int i = 0; i < 8000; ++i) {
    ++hits[pick_destination(t, TrafficPattern::kUniformRandom, 0, rng)];
  }
  EXPECT_EQ(hits.size(), 15u);  // Everyone but the source.
}

TEST(Destinations, BitComplementIsDeterministicAndInvolutive) {
  Topology t(8, 8, false);
  Rng rng(1);
  for (NodeId src = 0; src < 64; ++src) {
    const NodeId d =
        pick_destination(t, TrafficPattern::kBitComplement, src, rng);
    EXPECT_EQ(d, static_cast<NodeId>(~src & 63));
    // Complement of the complement returns home (remapped if self — never
    // the case for a power-of-two network).
    EXPECT_EQ(pick_destination(t, TrafficPattern::kBitComplement, d, rng),
              src);
  }
}

TEST(Destinations, TornadoMatchesClosedForm) {
  Topology t(8, 8, false);
  Rng rng(1);
  // dx = ceil(8/2) - 1 = 3 in each dimension.
  const NodeId d = pick_destination(t, TrafficPattern::kTornado, 0, rng);
  EXPECT_EQ(t.coord_of(d).x, 3);
  EXPECT_EQ(t.coord_of(d).y, 3);
}

TEST(Destinations, TornadoNeverSelf) {
  Topology t(4, 4, false);
  Rng rng(1);
  for (NodeId src = 0; src < 16; ++src) {
    EXPECT_NE(pick_destination(t, TrafficPattern::kTornado, src, rng), src);
  }
}

TEST(TrafficSource, GenerationRateMatchesInjectionRate) {
  Topology t(4, 4, false);
  const double inj = 0.2;  // flits/node/cycle; packets = inj / 4.
  TrafficSource src(t, 0, TrafficPattern::kUniformRandom, inj, 4, Rng(3));
  PacketId pid = 1;
  int generated = 0;
  const int cycles = 200'000;
  for (int c = 0; c < cycles; ++c) {
    if (src.maybe_generate(static_cast<Cycle>(c), pid)) ++generated;
  }
  const double rate = static_cast<double>(generated) / cycles;
  EXPECT_NEAR(rate, inj / 4, 0.005);
}

TEST(TrafficSource, PacketIdsAdvance) {
  Topology t(4, 4, false);
  TrafficSource src(t, 0, TrafficPattern::kUniformRandom, 1.0, 4, Rng(3));
  PacketId pid = 10;
  Cycle now = 0;
  while (!src.maybe_generate(now, pid)) ++now;
  EXPECT_GT(pid, 10u);
}

// One generated packet as the event kernel sees it: the cycle it fired
// and every field its flits carry from the source's draws.
using Injection =
    std::tuple<Cycle, PacketId, NodeId, std::vector<std::uint64_t>>;

Injection injection(Cycle c, const std::vector<Flit>& flits) {
  std::vector<std::uint64_t> payloads;
  for (const Flit& f : flits) payloads.push_back(f.payload);
  return {c, flits.front().packet_id, flits.front().dest,
          std::move(payloads)};
}

// The look-ahead pin: a TrafficSource that draws its gap ahead must
// produce exactly the (cycle, packet) sequence of the per-cycle coin it
// replaced — one bernoulli(p) per cycle, then the destination and payload
// draws at the firing cycle. It must do so whether it is called every
// cycle (the scan kernel) or only at next_due() (a sleeping PE under the
// event kernel). The rates cover busy sources, gaps beyond the 256-cycle
// wheel and gaps beyond the look-ahead chunk (no-fire checkpoints), and a
// source that fires every cycle.
TEST(TrafficSource, LookAheadMatchesPerCycleCoins) {
  Topology t(4, 4, false);
  struct Case {
    double rate;
    int len;
    Cycle cycles;
  };
  for (const Case& k : {Case{0.3, 4, 20'000}, Case{0.0005, 1, 60'000},
                        Case{0.0001, 1, 120'000}, Case{4.0, 4, 200}}) {
    SCOPED_TRACE(k.rate);
    const double p = k.rate / k.len;
    std::vector<Injection> want;
    {
      Rng rng(11);
      PacketId pid = 1;
      for (Cycle c = 0; c < k.cycles; ++c) {
        if (!rng.bernoulli(p)) continue;
        const NodeId dest =
            pick_destination(t, TrafficPattern::kUniformRandom, 5, rng);
        want.push_back(injection(
            c, TrafficSource::build_packet(pid++, 5, dest, k.len, c, &rng)));
      }
    }
    ASSERT_GT(want.size(), 5u) << "scenario generated almost no packets";

    std::vector<Injection> every_cycle;
    {
      TrafficSource src(t, 5, TrafficPattern::kUniformRandom, k.rate, k.len,
                        Rng(11));
      PacketId pid = 1;
      for (Cycle c = 0; c < k.cycles; ++c) {
        if (auto pkt = src.maybe_generate(c, pid)) {
          every_cycle.push_back(injection(c, *pkt));
        }
      }
    }
    EXPECT_EQ(every_cycle, want);

    std::vector<Injection> only_due;
    Cycle max_gap = 0;
    bool checkpointed = false;
    {
      TrafficSource src(t, 5, TrafficPattern::kUniformRandom, k.rate, k.len,
                        Rng(11));
      PacketId pid = 1;
      Cycle last = 0;
      for (Cycle c = src.next_due(); c < k.cycles; c = src.next_due()) {
        if (auto pkt = src.maybe_generate(c, pid)) {
          only_due.push_back(injection(c, *pkt));
          max_gap = std::max(max_gap, c - last);
          last = c;
        } else {
          checkpointed = true;
        }
        ASSERT_GT(src.next_due(), c);
        ASSERT_LE(src.next_due(), c + TrafficSource::kLookAheadChunk + 1);
      }
    }
    EXPECT_EQ(only_due, want);
    if (k.rate == 0.0001) {
      EXPECT_TRUE(checkpointed) << "no gap outran the look-ahead chunk";
      EXPECT_GT(max_gap, TrafficSource::kLookAheadChunk);
    }
  }
}

// A vanishing rate must not turn the look-ahead into a 10^12-draw loop:
// the chunk bound keeps it at one draw per cycle, as the per-cycle coin
// was, under both kernels.
TEST(TrafficSource, VanishingRateCompletesItsCycles) {
  for (const bool scan : {false, true}) {
    SimConfig cfg;
    cfg.mesh_width = 4;
    cfg.mesh_height = 4;
    cfg.injection_rate = 1e-12;
    cfg.force_scan_kernel = scan;
    Network net(cfg);
    const Cycle cycles = 3 * TrafficSource::kLookAheadChunk + 17;
    for (Cycle c = 0; c < cycles; ++c) net.step();
    EXPECT_EQ(net.now(), cycles);
    EXPECT_EQ(net.stats().packets_created(), 0u);
  }
}

}  // namespace
}  // namespace ftnoc
