// Open-loop accounting for the paced serve phase.
//
// The generator sends FEED lines on a fixed schedule that does not slow
// down when the daemon does: FEEDs go round robin over the sessions, each
// carrying `feed_packets` packets, at an aggregate `rate_pps`. The replay
// is cut into a few contiguous segments sent at different times of the run
// (so one noisy moment on the host cannot own the whole sample); inside a
// segment the schedule runs from the segment's own start.
//
// A window's row latency is measured from the DUE time of the FEED that
// carried the window's triggering packet -- not from when that FEED was
// actually written -- so a stall anywhere (daemon, TCP, or the generator
// itself) shows up as latency on every row queued behind it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

namespace perfbench {

struct PacedPlan {
  std::size_t sessions{64};
  std::size_t feed_packets{256};
  double rate_pps{500000};  // aggregate packets per second, all sessions
  std::size_t segments{4};

  /// FEEDs [first, last) of every session belong to segment `g`, for a
  /// replay of `feeds` FEEDs per session.
  [[nodiscard]] std::pair<std::size_t, std::size_t> segment_feeds(std::size_t feeds,
                                                                  std::size_t g) const;
  /// Due time of FEED `feed` of `session`, in ns after the start of its
  /// segment, whose first FEED is `first`.
  [[nodiscard]] std::int64_t due_ns(std::size_t session, std::size_t feed,
                                    std::size_t first) const;
  /// FEED (per session) that carries the session's packet `packet_index`.
  [[nodiscard]] std::size_t feed_of_packet(std::uint64_t packet_index) const {
    return static_cast<std::size_t>(packet_index / feed_packets);
  }
};

/// Row latency in ns: arrival minus the due time (absolute, ns) of the FEED
/// that carried the triggering packet; `due_of_feed` holds the session's
/// FEED due times. A stream::Engine emits a window's snapshot while
/// ingesting the first packet at or past the window's end, before counting
/// it, so the row's `packets` field is that packet's 0-based index.
[[nodiscard]] std::int64_t row_latency_ns(const PacedPlan& plan,
                                          std::span<const std::int64_t> due_of_feed,
                                          std::uint64_t packets_seen,
                                          std::int64_t arrival_ns);

/// The fields of a ROWS payload (a watch jsonl line) the accounting needs.
struct RowKey {
  std::uint64_t tick{0};
  bool is_final{false};
  std::uint64_t packets{0};
};

/// Read tick/final/packets from a jsonl row. False when a field is missing.
[[nodiscard]] bool parse_row_key(const std::string& payload, RowKey* out);

}  // namespace perfbench
