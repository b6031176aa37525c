#include "trace/flows.h"

#include <algorithm>
#include <stdexcept>

namespace netsample::trace {

FlowTable::FlowTable(MicroDuration idle_timeout) : idle_timeout_(idle_timeout) {
  if (idle_timeout_.usec <= 0) {
    throw std::invalid_argument("flow table: idle timeout must be positive");
  }
}

void FlowTable::offer(const PacketRecord& p) {
  if (saw_packet_ && p.timestamp < last_time_) {
    throw std::invalid_argument("flow table: packets must be time-ordered");
  }
  last_time_ = p.timestamp;
  saw_packet_ = true;
  expire_idle(p.timestamp);

  const FlowKey key{p.src, p.dst, p.src_port, p.dst_port, p.protocol};
  auto [it, inserted] = active_.try_emplace(key);
  FlowRecord& flow = it->second;
  if (inserted) {
    flow.key = key;
    flow.first_seen = p.timestamp;
  }
  flow.last_seen = p.timestamp;
  flow.packets += 1;
  flow.bytes += p.size;
  if (p.protocol == 6) {
    if (p.tcp_flags & 0x02) flow.saw_syn = true;
    if (p.tcp_flags & 0x01) flow.saw_fin = true;
  }
}

void FlowTable::expire_idle(MicroTime now) {
  // Amortize the scan: idle flows only need to be noticed within a quarter
  // timeout of their expiry, so scanning that often keeps offer() O(1)
  // amortized. (An operational implementation would keep an LRU list.)
  if (checked_expiry_ &&
      now - last_expiry_check_ < MicroDuration{idle_timeout_.usec / 4 + 1}) {
    return;
  }
  checked_expiry_ = true;
  last_expiry_check_ = now;
  for (auto it = active_.begin(); it != active_.end();) {
    if (now - it->second.last_seen > idle_timeout_) {
      expired_.push_back(it->second);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void FlowTable::run(TraceView view) {
  for (const auto& p : view) offer(p);
  flush();
}

void FlowTable::flush() {
  for (auto& [key, flow] : active_) {
    (void)key;
    expired_.push_back(flow);
  }
  active_.clear();
}

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
