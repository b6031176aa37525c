// Streaming pcap I/O: record-at-a-time reading and writing.
//
// The in-memory API (pcap.h) is convenient for experiments; operational
// tools cannot always afford to hold a multi-gigabyte capture. StreamReader
// yields one RawPacket at a time from disk, framed by the same RecordCursor
// as parse() over a buffer that only ever holds bytes actually read; and
// StreamWriter appends records as they are produced (e.g. by a sampler in
// a filtering pipeline) with serialize()'s record-header encoder.
#pragma once

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "pcap/pcap.h"

namespace netsample::pcap {

class StreamReader {
 public:
  /// Opens the capture and validates its global header; check ok() before
  /// reading. `options` is the same corrupt-record policy parse() takes.
  explicit StreamReader(const std::string& path,
                        const ParseOptions& options = {});

  /// OK, or why the capture was refused: a bad global header, or kDataLoss
  /// for a corrupt record under OnCorrupt::kFail.
  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] bool ok() const { return status_.is_ok(); }

  [[nodiscard]] std::uint32_t link_type() const { return cursor_.link_type(); }
  [[nodiscard]] std::uint32_t snaplen() const { return cursor_.snaplen(); }
  [[nodiscard]] bool byte_swapped() const { return cursor_.byte_swapped(); }

  /// Next record, or nullopt at the end of the capture — the same records,
  /// in the same order, that parse() returns for the file. Never throws.
  [[nodiscard]] std::optional<RawPacket> next();

  /// Records returned so far.
  [[nodiscard]] std::uint64_t records_read() const {
    return cursor_.stats().records;
  }
  /// The same counters parse() reports for the file (final at the end).
  [[nodiscard]] const ParseStats& parse_stats() const {
    return cursor_.stats();
  }

 private:
  RecordCursor::Step step();

  std::ifstream in_;
  Status status_;
  RecordCursor cursor_;
  std::vector<std::uint8_t> buf_;  // bytes read and not yet consumed, from
  std::size_t begin_{0};           // buf_[begin_] on
};

class StreamWriter {
 public:
  /// Creates/truncates the file and writes the global header immediately.
  StreamWriter(const std::string& path, std::uint32_t link_type = kLinkTypeRaw,
               std::uint32_t snaplen = 65535);

  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] bool ok() const { return status_.is_ok(); }

  /// Append one record (data longer than snaplen is truncated; orig_len is
  /// preserved). Returns false once the stream has failed.
  bool write(const RawPacket& record);

  /// Convenience: encode and append a PacketRecord as a raw-IP record.
  bool write_packet(const trace::PacketRecord& packet);

  [[nodiscard]] std::uint64_t records_written() const {
    return records_written_;
  }

  /// Flush buffered output (also happens on destruction).
  void flush() { out_.flush(); }

 private:
  std::ofstream out_;
  Status status_;
  std::uint32_t snaplen_;
  std::uint64_t records_written_{0};
};

}  // namespace netsample::pcap
