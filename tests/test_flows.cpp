#include "trace/flows.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "flow/sampled_table.h"
#include "synth/presets.h"

namespace netsample::trace {
namespace {

PacketRecord pkt(std::uint64_t usec, net::Ipv4Address src, net::Ipv4Address dst,
                 std::uint16_t sport, std::uint16_t dport,
                 std::uint8_t proto = 6, std::uint16_t size = 100,
                 std::uint8_t flags = 0x10) {
  PacketRecord p;
  p.timestamp = MicroTime{usec};
  p.src = src;
  p.dst = dst;
  p.src_port = sport;
  p.dst_port = dport;
  p.protocol = proto;
  p.size = size;
  p.tcp_flags = flags;
  return p;
}

const net::Ipv4Address kA(10, 0, 0, 1);
const net::Ipv4Address kB(10, 0, 0, 2);
const net::Ipv4Address kC(10, 0, 0, 3);

// The flow-table behaviours, through flow::SampledFlowTable at capacity 0
// (uncapped), the table that superseded trace::FlowTable.
flow::SampledFlowTable uncapped(MicroDuration idle_timeout) {
  return flow::SampledFlowTable(idle_timeout, 0);
}

TEST(FlowTable, GroupsByFiveTuple) {
  auto table = uncapped(MicroDuration::from_seconds(60));
  table.offer(pkt(0, kA, kB, 1025, 23));
  table.offer(pkt(1000, kA, kB, 1025, 23, 6, 200));
  table.offer(pkt(2000, kA, kB, 1026, 23));  // different src port
  table.offer(pkt(3000, kA, kC, 1025, 23));  // different dst
  EXPECT_EQ(table.active_flows(), 3u);
  table.flush();
  EXPECT_EQ(table.records().size(), 3u);

  const auto top = top_by_packets(table.records(), 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].packets, 2u);
  EXPECT_EQ(top[0].bytes, 300u);
}

TEST(FlowTable, TracksTimesAndFlags) {
  auto table = uncapped(MicroDuration::from_seconds(60));
  table.offer(pkt(1000, kA, kB, 1025, 23, 6, 40, 0x02));  // SYN
  table.offer(pkt(5000, kA, kB, 1025, 23, 6, 100, 0x18));
  table.offer(pkt(9000, kA, kB, 1025, 23, 6, 40, 0x11));  // FIN|ACK
  table.flush();
  ASSERT_EQ(table.records().size(), 1u);
  const auto& f = table.records()[0];
  EXPECT_EQ(f.first_seen.usec, 1000u);
  EXPECT_EQ(f.last_seen.usec, 9000u);
  EXPECT_EQ(f.duration().usec, 8000);
  EXPECT_TRUE(f.saw_syn);
  EXPECT_TRUE(f.saw_fin);
  EXPECT_DOUBLE_EQ(f.mean_packet_size(), 60.0);
}

TEST(FlowTable, IdleTimeoutExpiresFlows) {
  auto table = uncapped(MicroDuration::from_seconds(1));
  table.offer(pkt(0, kA, kB, 1025, 23));
  // 5 seconds later (far beyond timeout + amortization slack).
  table.offer(pkt(5'000'000, kA, kC, 1025, 23));
  EXPECT_EQ(table.records().size(), 1u);
  EXPECT_EQ(table.active_flows(), 1u);
}

TEST(FlowTable, ContinuingTrafficKeepsFlowAlive) {
  auto table = uncapped(MicroDuration::from_seconds(1));
  for (int i = 0; i < 100; ++i) {
    table.offer(pkt(static_cast<std::uint64_t>(i) * 500'000, kA, kB, 1025, 23));
  }
  table.flush();
  EXPECT_EQ(table.records().size(), 1u);
  EXPECT_EQ(table.records()[0].packets, 100u);
}

TEST(FlowTable, RejectsTimeTravel) {
  auto table = uncapped(MicroDuration::from_seconds(1));
  table.offer(pkt(1000, kA, kB, 1, 2));
  EXPECT_THROW(table.offer(pkt(500, kA, kB, 1, 2)), std::invalid_argument);
}

TEST(FlowTable, RejectsBadTimeout) {
  EXPECT_THROW(uncapped(MicroDuration{0}), std::invalid_argument);
  EXPECT_THROW(uncapped(MicroDuration{-5}), std::invalid_argument);
}

TEST(FlowTable, StatsAggregate) {
  auto table = uncapped(MicroDuration::from_seconds(60));
  table.offer(pkt(0, kA, kB, 1, 2, 6, 100));
  table.offer(pkt(1'000'000, kA, kB, 1, 2, 6, 100));
  table.offer(pkt(2'000'000, kA, kC, 3, 4, 17, 50));
  table.flush();
  const auto s = flow_stats(table.records());
  EXPECT_EQ(s.flows, 2u);
  EXPECT_EQ(s.packets, 3u);
  EXPECT_EQ(s.bytes, 250u);
  EXPECT_DOUBLE_EQ(s.mean_flow_packets, 1.5);
  EXPECT_NEAR(s.mean_flow_duration_sec, 0.5, 1e-9);
}

TEST(FlowTable, RunDrivesWholeView) {
  // The synthetic workload should decompose into a plausible flow structure:
  // more than one packet per flow on average (trains), flows spanning
  // multiple networks.
  synth::TraceModel model(synth::sdsc_minutes_config(1.0, 77));
  const auto t = model.generate();
  auto table = uncapped(MicroDuration::from_seconds(30));
  for (const auto& p : t.view()) table.offer(p);
  table.flush();
  const auto s = flow_stats(table.records());
  EXPECT_EQ(s.packets, t.size());
  EXPECT_GT(s.flows, 100u);
  EXPECT_GT(s.mean_flow_packets, 1.5);
  const auto top = top_by_packets(table.records(), 5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_GE(top[0].packets, top[4].packets);
}

TEST(FlowTable, TopTalkerTiesFollowExpiryBatchThenFirstSeenThenKey) {
  // Every flow below carries 2 packets, so top_by_packets orders them by
  // record order alone: the expiry batch first, then first_seen, then the
  // 5-tuple — never hash order.
  auto table = uncapped(MicroDuration::from_seconds(1));
  table.offer(pkt(0, kC, kB, 9, 23));         // batch 1, t=0, larger key
  table.offer(pkt(0, kA, kB, 9, 23));         // batch 1, t=0, smaller key
  table.offer(pkt(100'000, kA, kB, 1, 23));   // batch 1, t=0.1
  table.offer(pkt(200'000, kC, kB, 9, 23));
  table.offer(pkt(200'000, kA, kB, 9, 23));
  table.offer(pkt(200'000, kA, kB, 1, 23));
  // 5 s on, the three flows above expire together; these finish in the
  // flush, a later batch, although kA < kC.
  table.offer(pkt(5'000'000, kC, kA, 7, 23));
  table.offer(pkt(5'000'000, kA, kC, 7, 23));
  table.offer(pkt(5'100'000, kC, kA, 7, 23));
  table.offer(pkt(5'100'000, kA, kC, 7, 23));
  table.flush();

  const auto top = top_by_packets(table.records(), 10);
  ASSERT_EQ(top.size(), 5u);
  const std::vector<std::pair<net::Ipv4Address, std::uint16_t>> want = {
      {kA, 9}, {kC, 9}, {kA, 1}, {kA, 7}, {kC, 7}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(top[i].packets, 2u) << i;
    EXPECT_EQ(top[i].key.src, want[i].first) << i;
    EXPECT_EQ(top[i].key.src_port, want[i].second) << i;
  }
  // A flow with more packets still comes first.
  auto busier = uncapped(MicroDuration::from_seconds(1));
  busier.offer(pkt(0, kA, kB, 1, 23));
  busier.offer(pkt(0, kC, kB, 1, 23));
  busier.offer(pkt(10, kC, kB, 1, 23));
  busier.flush();
  EXPECT_EQ(top_by_packets(busier.records(), 1).at(0).key.src, kC);
}

TEST(FlowKeyHash, DistinctKeysRarelyCollide) {
  FlowKeyHash h;
  std::set<std::size_t> hashes;
  int total = 0;
  for (int i = 0; i < 30; ++i) {
    for (std::uint16_t port : {23, 25, 119}) {
      FlowKey k{net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i)),
                kB, static_cast<std::uint16_t>(1024 + i), port, 6};
      hashes.insert(h(k));
      ++total;
    }
  }
  EXPECT_EQ(hashes.size(), static_cast<std::size_t>(total));
}

// Regression for the mix64-based hash: structured 5-tuple populations —
// exactly what real traffic looks like (sequential client ports, /24
// scans, one busy server) — must spread across buckets like random keys
// would. The earlier multiply-add chain failed this badly: its low output
// bits barely depended on the address words, so power-of-two bucket counts
// collapsed structured populations into a few buckets.
TEST(FlowKeyHash, StructuredPopulationsSpreadAcrossBuckets) {
  FlowKeyHash h;
  const std::size_t kBuckets = 256;  // power of two: uses only low bits

  const auto chi2_ok = [&](const std::vector<FlowKey>& keys) {
    std::vector<int> bucket(kBuckets, 0);
    for (const auto& k : keys) ++bucket[h(k) % kBuckets];
    const double expect =
        static_cast<double>(keys.size()) / static_cast<double>(kBuckets);
    double chi2 = 0.0;
    for (int c : bucket) {
      const double d = static_cast<double>(c) - expect;
      chi2 += d * d / expect;
    }
    // 255 dof: mean 255, sd ~22.6. Anything under mean + 5 sd is healthy;
    // the pre-fix hash scored in the thousands on these populations.
    return chi2 < 255.0 + 5.0 * 22.6;
  };

  // One busy server, sequential ephemeral client ports.
  std::vector<FlowKey> seq_ports;
  for (std::uint16_t port = 1024; port < 1024 + 2048; ++port) {
    seq_ports.push_back({kA, kB, port, 80, 6});
  }
  EXPECT_TRUE(chi2_ok(seq_ports)) << "sequential source ports";

  // A /24 scan: every destination host in one subnet, fixed ports.
  std::vector<FlowKey> scan;
  for (int net = 0; net < 8; ++net) {
    for (int host = 0; host < 256; ++host) {
      scan.push_back({kA,
                      net::Ipv4Address(192, 168, static_cast<std::uint8_t>(net),
                                       static_cast<std::uint8_t>(host)),
                      31337, 443, 6});
    }
  }
  EXPECT_TRUE(chi2_ok(scan)) << "/24 destination scan";

  // Sequential source addresses (DHCP pool), fixed everything else.
  std::vector<FlowKey> pool;
  for (int i = 0; i < 2048; ++i) {
    pool.push_back({net::Ipv4Address(10, 1, static_cast<std::uint8_t>(i / 256),
                                     static_cast<std::uint8_t>(i % 256)),
                    kB, 5000, 25, 17});
  }
  EXPECT_TRUE(chi2_ok(pool)) << "sequential source addresses";
}

// Avalanche: flipping any single input bit must flip close to half the
// output bits on average. The multiply-add chain moved only a handful for
// port-bit flips; the SplitMix64 finalizer is designed for exactly this.
TEST(FlowKeyHash, SingleBitFlipsAvalanche) {
  FlowKeyHash h;
  const FlowKey base{kA, kB, 1024, 80, 6};
  const std::size_t base_hash = h(base);

  double total_flipped = 0.0;
  int flips = 0;
  const auto probe = [&](const FlowKey& k) {
    const std::size_t x = base_hash ^ h(k);
    total_flipped += __builtin_popcountll(x);
    ++flips;
    // Every single-bit change must disturb the hash substantially — at
    // least 16 of 64 bits even in the worst case.
    EXPECT_GE(__builtin_popcountll(x), 16);
  };

  for (int b = 0; b < 16; ++b) {
    FlowKey k = base;
    k.src_port = static_cast<std::uint16_t>(k.src_port ^ (1u << b));
    probe(k);
    k = base;
    k.dst_port = static_cast<std::uint16_t>(k.dst_port ^ (1u << b));
    probe(k);
  }
  for (int b = 0; b < 32; ++b) {
    FlowKey k = base;
    k.src = net::Ipv4Address(k.src.value() ^ (1u << b));
    probe(k);
    k = base;
    k.dst = net::Ipv4Address(k.dst.value() ^ (1u << b));
    probe(k);
  }
  for (int b = 0; b < 8; ++b) {
    FlowKey k = base;
    k.protocol = static_cast<std::uint8_t>(k.protocol ^ (1u << b));
    probe(k);
  }
  // Mean across all flips should hover near 32 bits.
  const double mean = total_flipped / flips;
  EXPECT_GT(mean, 28.0);
  EXPECT_LT(mean, 36.0);
}

}  // namespace
}  // namespace netsample::trace
