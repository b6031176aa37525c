// Flow assembly: grouping packets into transport flows.
//
// The paper's Table 1 objects aggregate by network pair and by service
// port; the natural finer granularity -- the 5-tuple flow with an idle
// timeout -- is what NetFlow later standardized and what the paper's
// "geographic flow information" objects foreshadow. This header holds the
// flow vocabulary (key, hash, record) and the reports over a span of
// records; the streaming table that assembles them is
// flow::SampledFlowTable (uncapped at capacity 0).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.h"
#include "util/rng.h"

namespace netsample::trace {

/// Flow key: the classic 5-tuple.
struct FlowKey {
  net::Ipv4Address src;
  net::Ipv4Address dst;
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  std::uint8_t protocol{0};

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const noexcept {
    // Pack the 13 key bytes into two disjoint words and run each through
    // the full SplitMix64 finalizer. The earlier multiply-add chain had
    // poor avalanche (single-bit key flips moved only a handful of output
    // bits), which clustered structured 5-tuple populations — sequential
    // ports, /24 scans — into few buckets. Pinned by the collision /
    // avalanche regression in tests/test_flows.cpp.
    const std::uint64_t addrs =
        (std::uint64_t{k.src.value()} << 32) | k.dst.value();
    const std::uint64_t rest = (std::uint64_t{k.src_port} << 48) |
                               (std::uint64_t{k.dst_port} << 32) | k.protocol;
    return static_cast<std::size_t>(
        mix64(addrs ^ mix64(rest + 0x9E3779B97F4A7C15ULL)));
  }
};

/// A completed (or in-progress) flow record.
struct FlowRecord {
  FlowKey key;
  MicroTime first_seen;
  MicroTime last_seen;
  std::uint64_t packets{0};
  std::uint64_t bytes{0};
  bool saw_syn{false};
  bool saw_fin{false};

  [[nodiscard]] MicroDuration duration() const { return last_seen - first_seen; }
  [[nodiscard]] double mean_packet_size() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(bytes) / static_cast<double>(packets);
  }

  friend bool operator==(const FlowRecord&, const FlowRecord&) = default;
};

/// Summary across a set of flow records.
struct FlowStats {
  std::uint64_t flows{0};
  std::uint64_t packets{0};
  std::uint64_t bytes{0};
  double mean_flow_packets{0};
  double mean_flow_duration_sec{0};
};
[[nodiscard]] FlowStats flow_stats(std::span<const FlowRecord> records);

/// The `n` records with the most packets, in descending packet order; ties
/// keep their order in `records` (top talkers).
[[nodiscard]] std::vector<FlowRecord> top_by_packets(
    std::span<const FlowRecord> records, std::size_t n);

}  // namespace netsample::trace
