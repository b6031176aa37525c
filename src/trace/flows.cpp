#include "trace/flows.h"

#include <algorithm>

namespace netsample::trace {

std::vector<FlowRecord> top_by_packets(std::span<const FlowRecord> records,
                                       std::size_t n) {
  std::vector<FlowRecord> out(records.begin(), records.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.packets > b.packets;
                   });
  if (out.size() > n) out.resize(n);
  return out;
}

FlowStats flow_stats(std::span<const FlowRecord> records) {
  FlowStats s;
  s.flows = records.size();
  double dur_sum = 0.0;
  for (const auto& f : records) {
    s.packets += f.packets;
    s.bytes += f.bytes;
    dur_sum += f.duration().to_seconds();
  }
  if (s.flows > 0) {
    s.mean_flow_packets =
        static_cast<double>(s.packets) / static_cast<double>(s.flows);
    s.mean_flow_duration_sec = dur_sum / static_cast<double>(s.flows);
  }
  return s;
}

}  // namespace netsample::trace
