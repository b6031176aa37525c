#include "stream/source.h"

#include <algorithm>

namespace netsample::stream {

bool TraceSource::next_chunk(std::size_t max,
                             std::vector<trace::PacketRecord>& out) {
  if (pos_ >= view_.size() || max == 0) return false;
  const std::size_t take = std::min(max, view_.size() - pos_);
  const auto packets = view_.packets();
  out.insert(out.end(), packets.begin() + static_cast<std::ptrdiff_t>(pos_),
             packets.begin() + static_cast<std::ptrdiff_t>(pos_ + take));
  pos_ += take;
  return true;
}

PcapSource::PcapSource(const std::string& path,
                       const pcap::ParseOptions& options)
    : reader_(path, options) {}

bool PcapSource::next_chunk(std::size_t max,
                            std::vector<trace::PacketRecord>& out) {
  const std::size_t before = out.size();
  while (out.size() - before < max) {
    auto raw = reader_.next();
    if (!raw) break;
    auto rec = pcap::decode_record(*raw, reader_.link_type(), &stats_);
    if (!rec) continue;
    // One-pass streams cannot stable-sort reorderings the way decode()
    // does; clamp clock-backward records to the running maximum instead
    // (trace::TimePolicy::kClamp semantics) so downstream gap arithmetic
    // never sees negative interarrivals.
    if (any_ && rec->timestamp < last_ts_) {
      rec->timestamp = last_ts_;
      ++clamped_;
    }
    last_ts_ = rec->timestamp;
    any_ = true;
    out.push_back(*rec);
  }
  return out.size() > before;
}

}  // namespace netsample::stream
