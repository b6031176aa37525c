// One pcap framer: the whole-file parse() and the streaming StreamReader /
// PcapSource frame, validate and report damage through the same
// RecordCursor, so on any capture — clean, torn, bit-flipped, desynced,
// hostile — they must yield the same records, the same ParseStats and the
// same status under every OnCorrupt policy.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <span>

#include "faultsim/faultsim.h"
#include "pcap/pcap.h"
#include "pcap/stream.h"
#include "stream/source.h"
#include "synth/presets.h"

namespace netsample::pcap {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// About 7,000 records (0.8 MB at snaplen 96, 1.8 MB at 1500): many times
// any read buffer, so refills land mid-header, mid-body and mid-resync
// somewhere in every damaged variant.
const std::vector<std::uint8_t>& clean_capture(std::uint32_t snaplen) {
  static std::map<std::uint32_t, std::vector<std::uint8_t>> cache;
  auto& bytes = cache[snaplen];
  if (bytes.empty()) {
    synth::TraceModel model(synth::sdsc_minutes_config(0.3, 29));
    bytes = serialize(encode(model.generate(), snaplen));
  }
  return bytes;
}

void expect_same_stats(const ParseStats& a, const ParseStats& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.corrupt_records, b.corrupt_records);
  EXPECT_EQ(a.skipped_bytes, b.skipped_bytes);
  EXPECT_EQ(a.torn_tail_bytes, b.torn_tail_bytes);
}

const char* policy_name(OnCorrupt p) {
  switch (p) {
    case OnCorrupt::kTruncate: return "truncate";
    case OnCorrupt::kFail: return "fail";
    case OnCorrupt::kSalvage: return "salvage";
  }
  return "?";
}

/// Streams `path` through StreamReader and PcapSource and checks both
/// against parse() of the same bytes under the same policy.
void expect_streaming_matches_parse(const std::vector<std::uint8_t>& bytes,
                                    const std::string& path,
                                    OnCorrupt policy) {
  SCOPED_TRACE(policy_name(policy));
  ParseOptions options;
  options.on_corrupt = policy;
  ParseStats want_stats;
  const auto whole = parse(bytes, options, &want_stats);
  // A refused capture still yields its clean prefix while streaming: the
  // records the truncate policy keeps.
  const auto prefix = parse(bytes);
  const std::vector<RawPacket> none;
  const std::vector<RawPacket>& want = whole.has_value()    ? whole->records
                                       : prefix.has_value() ? prefix->records
                                                            : none;

  StreamReader reader(path, options);
  std::size_t i = 0;
  while (auto rec = reader.next()) {
    ASSERT_LT(i, want.size());
    EXPECT_EQ(rec->timestamp, want[i].timestamp) << "record " << i;
    EXPECT_EQ(rec->orig_len, want[i].orig_len) << "record " << i;
    EXPECT_EQ(rec->data, want[i].data) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, want.size());
  EXPECT_EQ(reader.status().code(), whole.status().code());
  expect_same_stats(reader.parse_stats(), want_stats);
  if (!whole.has_value()) return;
  EXPECT_EQ(reader.link_type(), whole->link_type);
  EXPECT_EQ(reader.snaplen(), whole->snaplen);

  // PcapSource: the same framer, then the shared record decoder with the
  // running-max clamp.
  std::vector<trace::PacketRecord> want_packets;
  for (const auto& raw : whole->records) {
    if (auto p = decode_record(raw, whole->link_type)) {
      if (!want_packets.empty() &&
          p->timestamp < want_packets.back().timestamp) {
        p->timestamp = want_packets.back().timestamp;
      }
      want_packets.push_back(*p);
    }
  }
  stream::PcapSource source(path, options);
  std::vector<trace::PacketRecord> got;
  std::vector<trace::PacketRecord> chunk;
  while (source.next_chunk(997, chunk)) {
    got.insert(got.end(), chunk.begin(), chunk.end());
    chunk.clear();
  }
  EXPECT_EQ(source.status().code(), whole.status().code());
  expect_same_stats(source.parse_stats(), want_stats);
  EXPECT_TRUE(got == want_packets);
}

struct DamageCase {
  faultsim::Fault fault;
  std::uint32_t snaplen;
  std::uint64_t seed;
};

class FramerEquivalence : public ::testing::TestWithParam<DamageCase> {};

TEST_P(FramerEquivalence, StreamingMatchesParseUnderEveryPolicy) {
  const DamageCase c = GetParam();
  auto bytes = clean_capture(c.snaplen);
  faultsim::ImpairmentSpec spec;
  spec.fault = c.fault;
  spec.intensity = 0.002;
  spec.seed = c.seed;
  const auto report = faultsim::impair_pcap_bytes(bytes, spec);
  ASSERT_GT(report.affected, 0u);
  const std::string path =
      temp_path("netsample_framer_" +
                std::string(faultsim::fault_name(c.fault)) + "_" +
                std::to_string(c.snaplen) + "_" + std::to_string(c.seed) +
                ".pcap");
  write_bytes(path, bytes);
  for (const OnCorrupt policy :
       {OnCorrupt::kTruncate, OnCorrupt::kFail, OnCorrupt::kSalvage}) {
    expect_streaming_matches_parse(bytes, path, policy);
  }
  std::filesystem::remove(path);
}

std::vector<DamageCase> damage_corpus() {
  std::vector<DamageCase> cases;
  for (const auto fault :
       {faultsim::Fault::kTruncateRecords, faultsim::Fault::kBitFlips}) {
    for (const std::uint32_t snaplen : {96u, 1500u}) {
      for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        cases.push_back({fault, snaplen, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FramerEquivalence, ::testing::ValuesIn(damage_corpus()),
    [](const ::testing::TestParamInfo<DamageCase>& info) {
      return std::string(info.param.fault == faultsim::Fault::kBitFlips
                             ? "bitflip"
                             : "truncate") +
             "_snap" + std::to_string(info.param.snaplen) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(FramerEquivalence, CleanAndTornCapturesMatch) {
  const auto& clean = clean_capture(96);
  // Cuts inside the global header, a record header and a record body.
  for (const std::size_t cut :
       {clean.size(), std::size_t{10}, std::size_t{24 + 7}, clean.size() - 5,
        clean.size() - 120}) {
    SCOPED_TRACE(cut);
    const std::vector<std::uint8_t> bytes(
        clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(cut));
    const std::string path = temp_path("netsample_framer_torn.pcap");
    write_bytes(path, bytes);
    for (const OnCorrupt policy :
         {OnCorrupt::kTruncate, OnCorrupt::kFail, OnCorrupt::kSalvage}) {
      expect_streaming_matches_parse(bytes, path, policy);
    }
    std::filesystem::remove(path);
  }
}

/// A capture of just a global header and one record header, with the
/// given snaplen and claimed incl_len (no record bytes follow).
std::vector<std::uint8_t> header_only_capture(std::uint32_t snaplen,
                                              std::uint32_t incl_len) {
  CaptureFile empty;
  empty.snaplen = snaplen;
  std::vector<std::uint8_t> bytes = serialize(empty);
  RawPacket rec;
  rec.timestamp = MicroTime::from_sec_usec(1, 0);
  rec.orig_len = incl_len;
  const auto h = encode_record_header(rec, incl_len);
  bytes.insert(bytes.end(), h.begin(), h.end());
  return bytes;
}

TEST(FramerHostileHeader, ClaimedLengthIsNeverAllocatedUpFront) {
  // 40 bytes claiming a 2^28-byte record: the reader must read to the end
  // of the file and report a torn tail, not reserve what the header says.
  const auto bytes = header_only_capture(1u << 28, 1u << 28);
  ASSERT_EQ(bytes.size(), 40u);
  const std::string path = temp_path("netsample_framer_hostile.pcap");
  write_bytes(path, bytes);
  for (const OnCorrupt policy :
       {OnCorrupt::kTruncate, OnCorrupt::kFail, OnCorrupt::kSalvage}) {
    ParseOptions options;
    options.on_corrupt = policy;
    ParseStats stats;
    const auto whole = parse(bytes, options, &stats);
    ASSERT_TRUE(whole.has_value());
    EXPECT_TRUE(whole->records.empty());
    EXPECT_EQ(stats.torn_tail_bytes, 16u);

    StreamReader reader(path, options);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.ok());
    expect_same_stats(reader.parse_stats(), stats);
    expect_streaming_matches_parse(bytes, path, policy);
  }
  std::filesystem::remove(path);
}

TEST(FramerHostileHeader, LengthRuleDoesNotWrapNearMaxSnaplen) {
  // snaplen + slack computed in 32 bits wraps to a few KB, which would
  // call this honest 5000-byte record corrupt.
  const std::uint32_t snaplen = 0xFFFFFFF0u;
  CaptureFile file;
  file.snaplen = snaplen;
  RawPacket rec;
  rec.timestamp = MicroTime::from_sec_usec(1, 0);
  rec.data.assign(5000, 0x45);
  rec.orig_len = 5000;
  file.records.push_back(rec);
  const auto bytes = serialize(file);
  ParseOptions strict;
  strict.on_corrupt = OnCorrupt::kFail;
  ParseStats stats;
  const auto whole = parse(bytes, strict, &stats);
  ASSERT_TRUE(whole.has_value()) << whole.status().to_string();
  ASSERT_EQ(whole->records.size(), 1u);
  EXPECT_TRUE(stats.clean());

  // Near 2^32 no 32-bit length is past the bound: a header claiming more
  // than the file holds is a torn tail there, while a small snaplen still
  // refuses anything past snaplen + slack.
  const auto huge = header_only_capture(snaplen, 0xFFFFFFFFu);
  EXPECT_TRUE(parse(huge, strict).has_value());
  const auto small = header_only_capture(100, 100 + 4096 + 1);
  EXPECT_EQ(parse(small, strict).status().code(), StatusCode::kDataLoss);
}

TEST(FramerCursor, ShortInputIsNeedMoreUntilTheEnd) {
  const auto& clean = clean_capture(96);
  RecordCursor cursor;
  const std::span<const std::uint8_t> all(clean);
  EXPECT_EQ(cursor.next(all.first(10), false), RecordCursor::Step::kNeedMore);
  EXPECT_EQ(cursor.consumed(), 0u);
  EXPECT_EQ(cursor.next(all.first(30), false), RecordCursor::Step::kHeader);
  EXPECT_EQ(cursor.consumed(), 24u);
  // Half a record header: more bytes may follow, so it is not a torn tail.
  EXPECT_EQ(cursor.next(all.subspan(24, 6), false),
            RecordCursor::Step::kNeedMore);
  EXPECT_TRUE(cursor.stats().clean());
  // The same bytes as the end of the input are one.
  EXPECT_EQ(cursor.next(all.subspan(24, 6), true), RecordCursor::Step::kEnd);
  EXPECT_TRUE(cursor.status().is_ok());
  EXPECT_EQ(cursor.stats().torn_tail_bytes, 6u);
}

}  // namespace
}  // namespace netsample::pcap
