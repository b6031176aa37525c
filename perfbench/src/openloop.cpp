#include "openloop.h"

#include <cmath>
#include <cstdlib>

namespace perfbench {

std::pair<std::size_t, std::size_t> PacedPlan::segment_feeds(std::size_t feeds,
                                                             std::size_t g) const {
  return {feeds * g / segments, feeds * (g + 1) / segments};
}

std::int64_t PacedPlan::due_ns(std::size_t session, std::size_t feed,
                               std::size_t first) const {
  const double sends_before =
      static_cast<double>((feed - first) * sessions + session);
  return static_cast<std::int64_t>(
      std::llround(sends_before * static_cast<double>(feed_packets) / rate_pps * 1e9));
}

std::int64_t row_latency_ns(const PacedPlan& plan,
                            std::span<const std::int64_t> due_of_feed,
                            std::uint64_t packets_seen, std::int64_t arrival_ns) {
  return arrival_ns - due_of_feed[plan.feed_of_packet(packets_seen)];
}

namespace {

bool read_uint(const std::string& s, const char* key, std::uint64_t* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = s.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = s.c_str() + at + needle.size();
  char* end = nullptr;
  const unsigned long long v = std::strtoull(begin, &end, 10);
  if (end == begin) return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_row_key(const std::string& payload, RowKey* out) {
  std::uint64_t is_final = 0;
  if (!read_uint(payload, "tick", &out->tick) ||
      !read_uint(payload, "final", &is_final) ||
      !read_uint(payload, "packets", &out->packets)) {
    return false;
  }
  out->is_final = is_final != 0;
  return true;
}

}  // namespace perfbench
