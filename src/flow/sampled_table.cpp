#include "flow/sampled_table.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "obs/metrics.h"

namespace netsample::flow {

namespace {

/// Total order on 5-tuples, used to sort expiry/flush batches so record
/// order never depends on hash-map iteration.
bool key_less(const trace::FlowKey& a, const trace::FlowKey& b) {
  return std::make_tuple(a.src.value(), a.dst.value(), a.src_port, a.dst_port,
                         a.protocol) <
         std::make_tuple(b.src.value(), b.dst.value(), b.src_port, b.dst_port,
                         b.protocol);
}

}  // namespace

SampledFlowTable::SampledFlowTable(MicroDuration idle_timeout,
                                   std::size_t capacity)
    : idle_timeout_(idle_timeout), capacity_(capacity) {
  if (idle_timeout_.usec <= 0) {
    throw std::invalid_argument(
        "sampled flow table: idle timeout must be positive");
  }
}

void SampledFlowTable::offer(const trace::PacketRecord& p) {
  if (saw_packet_ && p.timestamp < last_time_) {
    throw std::invalid_argument(
        "sampled flow table: packets must be time-ordered");
  }
  last_time_ = p.timestamp;
  saw_packet_ = true;
  ++offered_;
  expire_idle(p.timestamp);

  const trace::FlowKey key{p.src, p.dst, p.src_port, p.dst_port, p.protocol};
  auto it = active_.find(key);
  if (it == active_.end()) {
    if (capacity_ > 0 && active_.size() >= capacity_) evict_lru();
    recency_.push_front(key);
    Entry entry;
    entry.record.key = key;
    entry.record.first_seen = p.timestamp;
    entry.lru = recency_.begin();
    it = active_.emplace(key, std::move(entry)).first;
  } else {
    recency_.splice(recency_.begin(), recency_, it->second.lru);
  }
  trace::FlowRecord& flow = it->second.record;
  flow.last_seen = p.timestamp;
  flow.packets += 1;
  flow.bytes += p.size;
  if (p.protocol == 6) {
    if (p.tcp_flags & 0x02) flow.saw_syn = true;
    if (p.tcp_flags & 0x01) flow.saw_fin = true;
  }
}

void SampledFlowTable::expire_idle(MicroTime now) {
  // Amortized: idle flows only need noticing within a quarter timeout of
  // expiry.
  if (checked_expiry_ &&
      now - last_expiry_check_ < MicroDuration{idle_timeout_.usec / 4 + 1}) {
    return;
  }
  checked_expiry_ = true;
  last_expiry_check_ = now;
  std::vector<trace::FlowRecord> batch;
  for (auto it = active_.begin(); it != active_.end();) {
    if (now - it->second.record.last_seen > idle_timeout_) {
      batch.push_back(it->second.record);
      recency_.erase(it->second.lru);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  idle_expiries_ += batch.size();
  finish_sorted(std::move(batch));
}

void SampledFlowTable::evict_lru() {
  // recency_ back is the least-recently-seen flow; list order is packet
  // arrival order, so the victim is unique — no hash-order tiebreak.
  const trace::FlowKey victim = recency_.back();
  auto it = active_.find(victim);
  records_.push_back(it->second.record);
  recency_.pop_back();
  active_.erase(it);
  ++evictions_;
}

void SampledFlowTable::finish_sorted(std::vector<trace::FlowRecord> batch) {
  std::sort(batch.begin(), batch.end(),
            [](const trace::FlowRecord& a, const trace::FlowRecord& b) {
              if (a.first_seen != b.first_seen) return a.first_seen < b.first_seen;
              return key_less(a.key, b.key);
            });
  records_.insert(records_.end(), batch.begin(), batch.end());
}

void SampledFlowTable::flush() {
  std::vector<trace::FlowRecord> batch;
  batch.reserve(active_.size());
  for (const auto& [key, entry] : active_) {
    (void)key;
    batch.push_back(entry.record);
  }
  active_.clear();
  recency_.clear();
  finish_sorted(std::move(batch));

  if (obs::enabled()) {
    auto& reg = obs::registry();
    reg.counter("netsample_flow_packets_offered_total").add(offered_);
    reg.counter("netsample_flow_records_total").add(records_.size());
    reg.counter("netsample_flow_evictions_total").add(evictions_);
    reg.counter("netsample_flow_idle_expiries_total").add(idle_expiries_);
  }
}

SampledFlowTable::Stats SampledFlowTable::stats() const {
  Stats s;
  s.packets_offered = offered_;
  s.flows_finished = records_.size();
  s.evictions = evictions_;
  s.idle_expiries = idle_expiries_;
  s.capacity = capacity_;
  return s;
}

}  // namespace netsample::flow
