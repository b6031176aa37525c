#include "pcap/pcap.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <utility>

#include "net/headers.h"
#include "obs/metrics.h"
#include "util/byteorder.h"

namespace netsample::pcap {

namespace {

constexpr std::size_t kGlobalHeaderSize = 24;
constexpr std::size_t kEthernetHeaderSize = 14;
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

std::uint32_t read_u32(const std::uint8_t* p, bool swapped) {
  return swapped ? load_be32(p) : load_le32(p);
}

std::uint16_t read_u16(const std::uint8_t* p, bool swapped) {
  return swapped ? load_be16(p) : load_le16(p);
}

// A record whose claimed capture length is this far past the snaplen is
// framing garbage (bit flip or desync), not a generous writer.
constexpr std::uint64_t kInclLenSlack = 4096;

// Salvage resync: clock jumps this large between adjacent records mark a
// candidate header as implausible. Generous on purpose — the goal is to
// reject random garbage, not to police real monitor clocks (decode sorts
// small reorderings anyway).
constexpr std::uint32_t kMaxResyncClockJumpSec = 86400;

// Ingest counters are pure functions of the capture bytes, so they belong
// to the deterministic metrics section. Published once per parse()/decode().
void publish(
    std::initializer_list<std::pair<const char*, std::size_t>> counters) {
  if (!obs::enabled()) return;
  for (const auto& [name, value] : counters) {
    obs::registry().counter(name).add(value);
  }
}

}  // namespace

RecordCursor::Step RecordCursor::finish(Status status) {
  state_ = State::kDone;
  status_ = std::move(status);
  return Step::kEnd;
}

RecordCursor::Step RecordCursor::next(std::span<const std::uint8_t> in,
                                      bool at_end) {
  offset_ += consumed_;
  consumed_ = 0;
  if (state_ == State::kGlobalHeader) {
    if (in.size() < kGlobalHeaderSize) {
      if (!at_end) return Step::kNeedMore;
      return finish(Status(StatusCode::kDataLoss,
                           "pcap: file shorter than global header (" +
                               std::to_string(in.size()) + " bytes)"));
    }
    // The magic is stored in the writer's host order; reading it
    // little-endian and seeing the swapped constant means the writer was
    // big-endian.
    const std::uint32_t magic_le = load_le32(in.data());
    if (magic_le != kMagicNative && magic_le != kMagicSwapped) {
      return finish(Status(StatusCode::kInvalidArgument,
                           "pcap: bad magic (not a classic pcap file)"));
    }
    swapped_ = magic_le == kMagicSwapped;
    const std::uint16_t major = read_u16(in.data() + 4, swapped_);
    if (major != kVersionMajor) {
      return finish(
          Status(StatusCode::kUnimplemented,
                 "pcap: unsupported version " + std::to_string(major)));
    }
    snaplen_ = read_u32(in.data() + 16, swapped_);
    link_type_ = read_u32(in.data() + 20, swapped_);
    consumed_ = kGlobalHeaderSize;
    state_ = State::kRecords;
    return Step::kHeader;
  }

  std::size_t pos = 0;
  while (state_ != State::kDone) {
    if (pos + kRecordHeaderSize > in.size()) {
      if (!at_end) break;
      // The end: bytes short of a header are a torn tail, or more garbage
      // when no resync point was found.
      (state_ == State::kResync ? stats_.skipped_bytes
                                : stats_.torn_tail_bytes) += in.size() - pos;
      consumed_ = in.size();
      return finish(Status::ok());
    }
    const auto field = [&](std::size_t at) {
      return read_u32(in.data() + pos + at, swapped_);
    };
    const std::uint32_t ts_sec = field(0);
    const std::uint32_t incl_len = field(8);
    const bool fits = pos + kRecordHeaderSize + incl_len <= in.size();
    // In 64 bits, so a snaplen near 2^32 cannot wrap the bound.
    const bool garbage = incl_len > snaplen_ + kInclLenSlack;
    if (state_ == State::kResync) {
      // Salvage: slide forward one byte at a time until the stream looks
      // like an intact record header again, then resume framing there. A
      // false positive costs one garbage record, a false negative a little
      // more skipped data.
      const bool plausible = !garbage && field(4) < 1000000 &&
                             ts_sec >= prev_ts_sec_ &&
                             ts_sec - prev_ts_sec_ <= kMaxResyncClockJumpSec;
      if (plausible && !fits && !at_end) break;
      if (!plausible || !fits) {
        ++stats_.skipped_bytes;
        ++pos;
        continue;
      }
      state_ = State::kRecords;
    }
    if (garbage) {
      // A record header no writer would produce: bit flip or desync.
      ++stats_.corrupt_records;
      if (options_.on_corrupt == OnCorrupt::kFail) {
        return finish(Status(StatusCode::kDataLoss,
                             "pcap: corrupt record header at byte " +
                                 std::to_string(offset_ + pos) +
                                 " (incl_len " + std::to_string(incl_len) +
                                 " > snaplen " + std::to_string(snaplen_) +
                                 ")"));
      }
      if (options_.on_corrupt == OnCorrupt::kTruncate) {
        return finish(Status::ok());
      }
      state_ = State::kResync;
      ++stats_.skipped_bytes;
      ++pos;
      continue;
    }
    if (!fits) {
      if (!at_end) break;
      // Torn trailing record: keep the complete prefix.
      stats_.torn_tail_bytes = in.size() - pos;
      consumed_ = in.size();
      return finish(Status::ok());
    }
    record_.timestamp = MicroTime::from_sec_usec(ts_sec, field(4));
    record_.orig_len = field(12);
    record_.data = in.subspan(pos + kRecordHeaderSize, incl_len);
    consumed_ = pos + kRecordHeaderSize + incl_len;
    ++stats_.records;
    prev_ts_sec_ = ts_sec;
    return Step::kRecord;
  }
  if (state_ == State::kDone) return Step::kEnd;
  consumed_ = pos;  // the frame at `pos` runs past the input
  return Step::kNeedMore;
}

StatusOr<CaptureFile> parse(std::span<const std::uint8_t> bytes,
                            const ParseOptions& options, ParseStats* stats) {
  RecordCursor cursor(options);
  CaptureFile file;
  std::size_t off = 0;
  for (;;) {
    const RecordCursor::Step step = cursor.next(bytes.subspan(off), true);
    off += cursor.consumed();
    if (step == RecordCursor::Step::kEnd) break;
    if (step == RecordCursor::Step::kRecord) {
      file.records.push_back(cursor.record().copy());
    }
  }
  const ParseStats& ps = cursor.stats();
  publish({{"netsample_pcap_records_total", ps.records},
           {"netsample_pcap_corrupt_records_total", ps.corrupt_records},
           {"netsample_pcap_skipped_bytes_total", ps.skipped_bytes},
           {"netsample_pcap_torn_tail_bytes_total", ps.torn_tail_bytes}});
  if (stats != nullptr) *stats = ps;
  if (!cursor.status().is_ok()) return cursor.status();
  file.link_type = cursor.link_type();
  file.snaplen = cursor.snaplen();
  file.byte_swapped = cursor.byte_swapped();
  return file;
}

StatusOr<CaptureFile> read_file(const std::string& path,
                                const ParseOptions& options,
                                ParseStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(StatusCode::kNotFound, "pcap: cannot open '" + path + "'");
  }
  // Bulk reads, sized by the file when it has a size (one allocation, no
  // growth copies), else 1 MiB at a time (pipes). A byte-at-a-time
  // istreambuf_iterator copy cost most of a whole-file load.
  std::vector<std::uint8_t> bytes;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::size_t chunk = std::max<std::size_t>(ec ? 0 : size, 1 << 20);
  while (in && in.peek() != std::ifstream::traits_type::eof()) {
    const std::size_t have = bytes.size();
    bytes.resize(have + chunk);
    in.read(reinterpret_cast<char*>(bytes.data() + have),
            static_cast<std::streamsize>(chunk));
    bytes.resize(have + static_cast<std::size_t>(in.gcount()));
    chunk = 1 << 20;
  }
  return parse(bytes, options, stats);
}

std::array<std::uint8_t, kRecordHeaderSize> encode_record_header(
    const RawPacket& record, std::uint32_t incl_len) {
  std::array<std::uint8_t, kRecordHeaderSize> h{};
  store_le32(h.data(), static_cast<std::uint32_t>(record.timestamp.seconds()));
  store_le32(h.data() + 4,
             static_cast<std::uint32_t>(record.timestamp.subsec_usec()));
  store_le32(h.data() + 8, incl_len);
  store_le32(h.data() + 12, record.orig_len);
  return h;
}

std::vector<std::uint8_t> serialize(const CaptureFile& file) {
  std::size_t total = kGlobalHeaderSize;
  for (const auto& r : file.records) total += kRecordHeaderSize + r.data.size();
  std::vector<std::uint8_t> out(kGlobalHeaderSize);
  out.reserve(total);

  store_le32(out.data(), kMagicNative);
  store_le16(out.data() + 4, kVersionMajor);
  store_le16(out.data() + 6, kVersionMinor);
  // Bytes 8..15 (thiszone, sigfigs) stay zero.
  store_le32(out.data() + 16, file.snaplen);
  store_le32(out.data() + 20, file.link_type);

  for (const auto& r : file.records) {
    const auto h = encode_record_header(
        r, static_cast<std::uint32_t>(r.data.size()));
    out.insert(out.end(), h.begin(), h.end());
    out.insert(out.end(), r.data.begin(), r.data.end());
  }
  return out;
}

Status write_file(const std::string& path, const CaptureFile& file) {
  std::ofstream outf(path, std::ios::binary | std::ios::trunc);
  if (!outf) {
    return Status(StatusCode::kNotFound, "pcap: cannot create '" + path + "'");
  }
  const auto bytes = serialize(file);
  outf.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!outf) {
    return Status(StatusCode::kDataLoss, "pcap: short write to '" + path + "'");
  }
  return Status::ok();
}

std::optional<trace::PacketRecord> decode_record(const RawPacket& raw,
                                                 std::uint32_t link_type,
                                                 DecodeStats* stats) {
  DecodeStats scratch;
  DecodeStats& s = stats != nullptr ? *stats : scratch;

  std::span<const std::uint8_t> ip_bytes(raw.data);
  if (link_type == kLinkTypeEthernet) {
    if (ip_bytes.size() < kEthernetHeaderSize) {
      ++s.malformed;
      return std::nullopt;
    }
    const std::uint16_t ether_type = load_be16(ip_bytes.data() + 12);
    if (ether_type != kEtherTypeIpv4) {
      ++s.non_ipv4;
      return std::nullopt;
    }
    ip_bytes = ip_bytes.subspan(kEthernetHeaderSize);
  }

  auto ip = net::parse_ipv4(ip_bytes);
  if (!ip) {
    if (ip.status().code() == StatusCode::kInvalidArgument) {
      ++s.non_ipv4;
    } else {
      ++s.malformed;
    }
    return std::nullopt;
  }

  trace::PacketRecord rec;
  rec.timestamp = raw.timestamp;
  rec.size = ip->total_length;
  rec.protocol = ip->protocol;
  rec.src = ip->src;
  rec.dst = ip->dst;

  const auto payload = ip_bytes.subspan(
      std::min(ip->header_bytes(), ip_bytes.size()));
  // Only unfragmented first fragments carry a transport header.
  if (ip->fragment_offset == 0) {
    if (ip->protocol == 6) {
      if (auto tcp = net::parse_tcp(payload)) {
        rec.src_port = tcp->src_port;
        rec.dst_port = tcp->dst_port;
        rec.tcp_flags = tcp->flags;
      }
    } else if (ip->protocol == 17) {
      if (auto udp = net::parse_udp(payload)) {
        rec.src_port = udp->src_port;
        rec.dst_port = udp->dst_port;
      }
    }
  }
  ++s.decoded;
  return rec;
}

trace::Trace decode(const CaptureFile& file, DecodeStats* stats) {
  DecodeStats local;
  std::vector<trace::PacketRecord> records;
  records.reserve(file.records.size());

  for (const auto& raw : file.records) {
    if (auto rec = decode_record(raw, file.link_type, &local)) {
      records.push_back(*rec);
    }
  }

  if (!std::is_sorted(records.begin(), records.end(),
                      [](const trace::PacketRecord& a, const trace::PacketRecord& b) {
                        return a.timestamp < b.timestamp;
                      })) {
    std::stable_sort(records.begin(), records.end(),
                     [](const trace::PacketRecord& a, const trace::PacketRecord& b) {
                       return a.timestamp < b.timestamp;
                     });
    ++local.out_of_order;
  }
  publish({{"netsample_pcap_packets_decoded_total", local.decoded},
           {"netsample_pcap_non_ipv4_total", local.non_ipv4},
           {"netsample_pcap_malformed_total", local.malformed},
           {"netsample_pcap_out_of_order_total", local.out_of_order}});
  if (stats != nullptr) *stats = local;
  return trace::Trace(std::move(records));
}

CaptureFile encode(const trace::Trace& t, std::uint32_t snaplen) {
  CaptureFile file;
  file.link_type = kLinkTypeRaw;
  file.snaplen = snaplen;
  file.records.reserve(t.size());

  for (const auto& rec : t.packets()) {
    net::Ipv4Header ip;
    ip.protocol = rec.protocol;
    ip.src = rec.src;
    ip.dst = rec.dst;
    ip.ttl = 30;

    // Build a transport header matching the record, then pad the payload so
    // the IP total length equals rec.size.
    std::vector<std::uint8_t> transport;
    const std::size_t ip_hlen = 20;
    const std::size_t want_payload = rec.size > ip_hlen ? rec.size - ip_hlen : 0;
    if (rec.protocol == 6 && want_payload >= 20) {
      net::TcpHeader tcp;
      tcp.src_port = rec.src_port;
      tcp.dst_port = rec.dst_port;
      tcp.flags = rec.tcp_flags;
      tcp.window = 4096;
      std::vector<std::uint8_t> body(want_payload - 20, 0);
      transport = net::build_tcp_segment(tcp, rec.src, rec.dst, body);
    } else if (rec.protocol == 17 && want_payload >= 8) {
      net::UdpHeader udp;
      udp.src_port = rec.src_port;
      udp.dst_port = rec.dst_port;
      std::vector<std::uint8_t> body(want_payload - 8, 0);
      transport = net::build_udp_datagram(udp, rec.src, rec.dst, body);
    } else {
      transport.assign(want_payload, 0);
    }

    RawPacket raw;
    raw.timestamp = rec.timestamp;
    auto wire = net::build_ipv4_packet(ip, transport);
    raw.orig_len = static_cast<std::uint32_t>(wire.size());
    if (wire.size() > snaplen) wire.resize(snaplen);
    raw.data = std::move(wire);
    file.records.push_back(std::move(raw));
  }
  return file;
}

StatusOr<trace::Trace> read_trace(const std::string& path, DecodeStats* stats) {
  return read_trace(path, ParseOptions{}, nullptr, stats);
}

StatusOr<trace::Trace> read_trace(const std::string& path,
                                  const ParseOptions& options,
                                  ParseStats* parse_stats,
                                  DecodeStats* decode_stats) {
  auto file = read_file(path, options, parse_stats);
  if (!file) return file.status();
  return decode(*file, decode_stats);
}

Status write_trace(const std::string& path, const trace::Trace& t,
                   std::uint32_t snaplen) {
  return write_file(path, encode(t, snaplen));
}

}  // namespace netsample::pcap
