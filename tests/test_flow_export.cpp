#include "trace/flow_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "flow/sampled_table.h"
#include "synth/presets.h"

namespace netsample::trace {
namespace {

std::vector<FlowRecord> sample_records() {
  FlowRecord a;
  a.key = {net::Ipv4Address(132, 249, 1, 5), net::Ipv4Address(192, 203, 230, 10),
           1025, 23, 6};
  a.first_seen = MicroTime{1000};
  a.last_seen = MicroTime{900000};
  a.packets = 42;
  a.bytes = 9001;
  a.saw_syn = true;

  FlowRecord b;
  b.key = {net::Ipv4Address(132, 249, 9, 9), net::Ipv4Address(128, 32, 1, 1),
           2001, 53, 17};
  b.first_seen = MicroTime{5000};
  b.last_seen = MicroTime{5000};
  b.packets = 1;
  b.bytes = 76;
  b.saw_fin = false;
  return {a, b};
}

TEST(FlowExport, SerializeParseRoundTrip) {
  const auto records = sample_records();
  const auto bytes = serialize_flows(records);
  const auto parsed = parse_flows(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*parsed)[i].key, records[i].key);
    EXPECT_EQ((*parsed)[i].first_seen, records[i].first_seen);
    EXPECT_EQ((*parsed)[i].last_seen, records[i].last_seen);
    EXPECT_EQ((*parsed)[i].packets, records[i].packets);
    EXPECT_EQ((*parsed)[i].bytes, records[i].bytes);
    EXPECT_EQ((*parsed)[i].saw_syn, records[i].saw_syn);
    EXPECT_EQ((*parsed)[i].saw_fin, records[i].saw_fin);
  }
}

TEST(FlowExport, EmptyListRoundTrips) {
  const auto bytes = serialize_flows({});
  const auto parsed = parse_flows(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(FlowExport, RejectsBadMagic) {
  auto bytes = serialize_flows(sample_records());
  bytes[0] = 'X';
  const auto parsed = parse_flows(bytes);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlowExport, RejectsWrongVersion) {
  auto bytes = serialize_flows(sample_records());
  bytes[4] = 99;
  EXPECT_EQ(parse_flows(bytes).status().code(), StatusCode::kUnimplemented);
}

TEST(FlowExport, RejectsTruncation) {
  auto bytes = serialize_flows(sample_records());
  bytes.resize(bytes.size() - 1);
  EXPECT_EQ(parse_flows(bytes).status().code(), StatusCode::kDataLoss);
  bytes.resize(8);
  EXPECT_EQ(parse_flows(bytes).status().code(), StatusCode::kDataLoss);
}

// EVERY proper prefix of a valid file must be rejected as data loss (or,
// below 5 bytes, before the version/magic fields are even complete, still
// never accepted). A collector that dies mid-write must not yield a
// silently-short flow list.
TEST(FlowExport, RejectsEveryTruncatedPrefix) {
  const auto bytes = serialize_flows(sample_records());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + n);
    const auto parsed = parse_flows(prefix);
    ASSERT_FALSE(parsed.has_value()) << "accepted prefix of " << n << " bytes";
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
        << "prefix length " << n;
  }
}

// A header count that disagrees with the payload length is data loss in
// both directions: count too high (payload short) and count too low
// (trailing bytes). Either way the record stream cannot be trusted.
TEST(FlowExport, RejectsCountPayloadMismatch) {
  const auto patch_count = [](std::vector<std::uint8_t> bytes,
                              std::uint64_t count) {
    for (int i = 0; i < 8; ++i) {
      bytes[8 + i] = static_cast<std::uint8_t>(count >> (8 * i));
    }
    return bytes;
  };
  const auto bytes = serialize_flows(sample_records());  // count = 2

  EXPECT_EQ(parse_flows(patch_count(bytes, 3)).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(parse_flows(patch_count(bytes, 1)).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(parse_flows(patch_count(bytes, 0)).status().code(),
            StatusCode::kDataLoss);
  // Adversarial counts near 2^64: count * record-size would wrap a naive
  // 64-bit multiply right past the truncation check. The parser must
  // reject these, not crash or accept.
  EXPECT_EQ(
      parse_flows(patch_count(bytes, 0xFFFF'FFFF'FFFF'FFFFULL)).status().code(),
      StatusCode::kDataLoss);
  EXPECT_EQ(
      parse_flows(patch_count(bytes, (1ULL << 60) + 1)).status().code(),
      StatusCode::kDataLoss);

  // Trailing garbage after the declared records is also a mismatch.
  auto extra = bytes;
  extra.push_back(0xAB);
  EXPECT_EQ(parse_flows(extra).status().code(), StatusCode::kDataLoss);
}

// Version skew is kUnimplemented (exit-70 class), distinct from corruption:
// the file may be fine, this reader just cannot decode it.
TEST(FlowExport, RejectsVersionSkewDistinctly) {
  for (const std::uint16_t version : {std::uint16_t{0}, std::uint16_t{2},
                                      std::uint16_t{0x7FFF}}) {
    auto bytes = serialize_flows(sample_records());
    bytes[4] = static_cast<std::uint8_t>(version & 0xFF);
    bytes[5] = static_cast<std::uint8_t>(version >> 8);
    const auto parsed = parse_flows(bytes);
    ASSERT_FALSE(parsed.has_value()) << "version " << version;
    EXPECT_EQ(parsed.status().code(), StatusCode::kUnimplemented)
        << "version " << version;
  }
}

TEST(FlowExport, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "netsample_flows.nsfe").string();
  const auto records = sample_records();
  ASSERT_TRUE(write_flows(path, records).is_ok());
  const auto loaded = read_flows(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), records.size());
  std::remove(path.c_str());
}

TEST(FlowExport, MissingFileFails) {
  EXPECT_EQ(read_flows("/nonexistent/flows.nsfe").status().code(),
            StatusCode::kNotFound);
}

TEST(FlowExport, EndToEndFromFlowTable) {
  // Assemble flows from synthetic traffic, export, reload, and compare the
  // aggregate statistics.
  synth::TraceModel model(synth::sdsc_minutes_config(0.5, 13));
  const auto t = model.generate();
  flow::SampledFlowTable table(MicroDuration::from_seconds(30), 0);
  for (const auto& p : t.view()) table.offer(p);
  table.flush();

  const auto bytes = serialize_flows(table.records());
  const auto parsed = parse_flows(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), table.records().size());
  std::uint64_t packets = 0;
  for (const auto& f : *parsed) packets += f.packets;
  EXPECT_EQ(packets, t.size());
}

}  // namespace
}  // namespace netsample::trace
