// Chunked packet sources for the streaming scorer.
//
// A PacketSource yields time-ordered PacketRecords in caller-sized chunks
// with O(chunk) memory. Two implementations:
//
//   TraceSource — chunks an in-memory TraceView (synthetic traces, tests,
//     and the bit-identity suite that pins streaming against the batch
//     fast path).
//   PcapSource  — record-at-a-time decode off pcap::StreamReader, sharing
//     the framer and pcap::decode_record with the whole-file path. The
//     whole-file decoder stable-sorts small capture-stack reorderings; one
//     pass cannot, so out-of-order timestamps are clamped to the running
//     maximum (trace::TimePolicy::kClamp's salvage rule) and counted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pcap/pcap.h"
#include "pcap/stream.h"
#include "trace/trace.h"
#include "util/status.h"

namespace netsample::stream {

class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// Append up to `max` records to `out` (which the caller has cleared).
  /// Returns false when the stream is exhausted and no records were added.
  [[nodiscard]] virtual bool next_chunk(std::size_t max,
                                        std::vector<trace::PacketRecord>& out) = 0;

  /// OK, or why the stream ended early (e.g. kDataLoss on a corrupt tail).
  [[nodiscard]] virtual Status status() const { return Status::ok(); }
};

/// Streams an in-memory view in chunks.
class TraceSource final : public PacketSource {
 public:
  explicit TraceSource(trace::TraceView view) : view_(view) {}

  [[nodiscard]] bool next_chunk(std::size_t max,
                                std::vector<trace::PacketRecord>& out) override;

 private:
  trace::TraceView view_;
  std::size_t pos_{0};
};

/// Streams IPv4 records decoded from a pcap file, one record at a time.
class PcapSource final : public PacketSource {
 public:
  /// Opens the capture; check ok() before streaming. `options` is the
  /// corrupt-record policy; under kFail a corrupt record ends the stream
  /// with status() kDataLoss.
  explicit PcapSource(const std::string& path,
                      const pcap::ParseOptions& options = {});

  [[nodiscard]] bool ok() const { return reader_.ok(); }
  [[nodiscard]] Status status() const override { return reader_.status(); }

  [[nodiscard]] bool next_chunk(std::size_t max,
                                std::vector<trace::PacketRecord>& out) override;

  [[nodiscard]] const pcap::ParseStats& parse_stats() const {
    return reader_.parse_stats();
  }
  [[nodiscard]] const pcap::DecodeStats& decode_stats() const { return stats_; }
  /// Records whose timestamp ran backwards and were clamped forward.
  [[nodiscard]] std::uint64_t clamped() const { return clamped_; }

 private:
  pcap::StreamReader reader_;
  pcap::DecodeStats stats_;
  std::uint64_t clamped_{0};
  MicroTime last_ts_{};
  bool any_{false};
};

}  // namespace netsample::stream
