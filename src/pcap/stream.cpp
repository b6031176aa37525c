#include "pcap/stream.h"

#include <algorithm>

namespace netsample::pcap {

// Refill granularity. Sized by a constant, never by a header field: a
// hostile incl_len can make the reader ask for more bytes, but the buffer
// only grows with bytes the file actually holds.
constexpr std::size_t kReadChunk = 64 * 1024;

StreamReader::StreamReader(const std::string& path, const ParseOptions& options)
    : in_(path, std::ios::binary), cursor_(options) {
  if (!in_) {
    status_ = Status(StatusCode::kNotFound, "pcap: cannot open '" + path + "'");
    return;
  }
  (void)step();  // the global header
}

RecordCursor::Step StreamReader::step() {
  for (;;) {
    // A short read leaves the stream failed: that is the end of the file.
    const auto s = cursor_.next(std::span(buf_).subspan(begin_), !in_);
    begin_ += cursor_.consumed();
    if (s != RecordCursor::Step::kNeedMore) {
      if (s == RecordCursor::Step::kEnd) status_ = cursor_.status();
      return s;
    }
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(begin_));
    begin_ = 0;
    const std::size_t have = buf_.size();
    buf_.resize(have + kReadChunk);
    in_.read(reinterpret_cast<char*>(buf_.data() + have), kReadChunk);
    buf_.resize(have + static_cast<std::size_t>(in_.gcount()));
  }
}

std::optional<RawPacket> StreamReader::next() {
  if (!ok() || step() != RecordCursor::Step::kRecord) return std::nullopt;
  return cursor_.record().copy();
}

StreamWriter::StreamWriter(const std::string& path, std::uint32_t link_type,
                           std::uint32_t snaplen)
    : out_(path, std::ios::binary | std::ios::trunc), snaplen_(snaplen) {
  if (!out_) {
    status_ = Status(StatusCode::kNotFound, "pcap: cannot create '" + path + "'");
    return;
  }
  CaptureFile empty;
  empty.link_type = link_type;
  empty.snaplen = snaplen;
  const auto header = serialize(empty);  // header of an empty capture
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  if (!out_) {
    status_ = Status(StatusCode::kDataLoss, "pcap: header write failed");
  }
}

bool StreamWriter::write(const RawPacket& record) {
  if (!ok()) return false;
  const std::uint32_t incl =
      std::min<std::uint32_t>(static_cast<std::uint32_t>(record.data.size()),
                              snaplen_);
  const auto hdr = encode_record_header(record, incl);
  out_.write(reinterpret_cast<const char*>(hdr.data()), hdr.size());
  out_.write(reinterpret_cast<const char*>(record.data.data()), incl);
  if (!out_) {
    status_ = Status(StatusCode::kDataLoss, "pcap: record write failed");
    return false;
  }
  ++records_written_;
  return true;
}

bool StreamWriter::write_packet(const trace::PacketRecord& packet) {
  // Reuse the in-memory encoder for a single packet.
  trace::Trace one(std::vector<trace::PacketRecord>{packet});
  const auto file = encode(one, snaplen_);
  return write(file.records.front());
}

}  // namespace netsample::pcap
