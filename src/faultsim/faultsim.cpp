#include "faultsim/faultsim.h"

#include <stdexcept>

#include "pcap/pcap.h"
#include "util/rng.h"

namespace netsample::faultsim {

namespace {

// Clock glitches and jumps are drawn in (1 us, ~2 s] — large enough to
// disturb interarrival statistics, small enough that salvage resync still
// accepts the neighborhood.
constexpr std::uint64_t kMaxJumpUsec = 2'000'000;

// Mean drop-burst length: bursts model a monitor falling behind for a
// stretch, not independent single-record losses.
constexpr double kBurstContinueProb = 1.0 / 8.0;

void validate(const ImpairmentSpec& spec) {
  if (!(spec.intensity >= 0.0 && spec.intensity <= 1.0)) {
    throw std::invalid_argument("faultsim: intensity must be in [0, 1]");
  }
}

bool is_byte_level(Fault f) {
  return f == Fault::kTruncateRecords || f == Fault::kBitFlips;
}

}  // namespace

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::kTruncateRecords: return "truncate";
    case Fault::kBitFlips: return "bitflip";
    case Fault::kClockJumpBack: return "clock-back";
    case Fault::kClockJumpForward: return "clock-forward";
    case Fault::kDuplicateRecords: return "duplicate";
    case Fault::kDropBursts: return "drop-burst";
  }
  return "unknown";
}

StatusOr<Fault> parse_fault(const std::string& name) {
  for (Fault f : all_faults()) {
    if (name == fault_name(f)) return f;
  }
  return Status(StatusCode::kInvalidArgument,
                "unknown fault '" + name +
                    "' (truncate|bitflip|clock-back|clock-forward|duplicate|"
                    "drop-burst)");
}

const std::vector<Fault>& all_faults() {
  static const std::vector<Fault> kAll = {
      Fault::kTruncateRecords,  Fault::kBitFlips,
      Fault::kClockJumpBack,    Fault::kClockJumpForward,
      Fault::kDuplicateRecords, Fault::kDropBursts,
  };
  return kAll;
}

ImpairmentReport impair_pcap_bytes(std::vector<std::uint8_t>& bytes,
                                   const ImpairmentSpec& spec) {
  validate(spec);
  if (!is_byte_level(spec.fault)) {
    throw std::invalid_argument(
        std::string("faultsim: ") + fault_name(spec.fault) +
        " is a record-level fault; use impair_records");
  }
  ImpairmentReport report;

  // Walk the intact framing first: mutations shift offsets, so decisions are
  // made in record order (deterministic RNG sequence) and byte edits are
  // applied back-to-front against the original offsets. The walk is
  // pcap::parse's own cursor, truncating at the first bad frame, so an
  // image that is not a capture (or is already corrupt) is left as it is.
  struct Edit {
    std::size_t erase_begin{0};  // truncation: byte range to delete
    std::size_t erase_len{0};
    std::size_t flip_at{0};      // bit flip: byte position and mask
    std::uint8_t flip_mask{0};
  };
  std::vector<Edit> edits;
  Rng rng(spec.seed);
  pcap::RecordCursor cursor;
  const std::span<const std::uint8_t> image(bytes);
  std::size_t off = 0;
  for (;;) {
    const auto step = cursor.next(image.subspan(off), true);
    off += cursor.consumed();
    if (step == pcap::RecordCursor::Step::kEnd) break;
    if (step != pcap::RecordCursor::Step::kRecord) continue;
    const std::span<const std::uint8_t> data = cursor.record().data;
    const std::size_t data_begin =
        static_cast<std::size_t>(data.data() - bytes.data());
    const std::uint64_t incl_len = data.size();
    if (incl_len > 0 && rng.bernoulli(spec.intensity)) {
      ++report.affected;
      Edit e;
      if (spec.fault == Fault::kTruncateRecords) {
        const std::uint64_t cut = 1 + rng.uniform_below(incl_len);
        e.erase_begin = data_begin + incl_len - cut;
        e.erase_len = static_cast<std::size_t>(cut);
        report.bytes_touched += e.erase_len;
      } else {  // kBitFlips
        e.flip_at = data_begin + rng.uniform_below(incl_len);
        e.flip_mask = static_cast<std::uint8_t>(1u << rng.uniform_below(8));
        report.bytes_touched += 1;
      }
      edits.push_back(e);
    }
  }

  for (auto it = edits.rbegin(); it != edits.rend(); ++it) {
    if (it->erase_len > 0) {
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(it->erase_begin),
                  bytes.begin() + static_cast<std::ptrdiff_t>(it->erase_begin +
                                                              it->erase_len));
    } else {
      bytes[it->flip_at] ^= it->flip_mask;
    }
  }
  return report;
}

ImpairmentReport impair_records(std::vector<trace::PacketRecord>& records,
                                const ImpairmentSpec& spec) {
  validate(spec);
  if (is_byte_level(spec.fault)) {
    throw std::invalid_argument(
        std::string("faultsim: ") + fault_name(spec.fault) +
        " is a byte-level fault; use impair_pcap_bytes");
  }
  ImpairmentReport report;
  Rng rng(spec.seed);
  switch (spec.fault) {
    case Fault::kClockJumpBack:
      for (auto& rec : records) {
        if (!rng.bernoulli(spec.intensity)) continue;
        const std::uint64_t jump = 1 + rng.uniform_below(kMaxJumpUsec);
        rec.timestamp =
            MicroTime{rec.timestamp.usec > jump ? rec.timestamp.usec - jump : 0};
        ++report.affected;
      }
      break;
    case Fault::kClockJumpForward: {
      std::uint64_t shift = 0;
      for (auto& rec : records) {
        if (rng.bernoulli(spec.intensity)) {
          shift += 1 + rng.uniform_below(kMaxJumpUsec);
          ++report.affected;
        }
        rec.timestamp = MicroTime{rec.timestamp.usec + shift};
      }
      break;
    }
    case Fault::kDuplicateRecords: {
      std::vector<trace::PacketRecord> out;
      out.reserve(records.size());
      for (const auto& rec : records) {
        out.push_back(rec);
        if (rng.bernoulli(spec.intensity)) {
          out.push_back(rec);
          ++report.affected;
        }
      }
      records = std::move(out);
      break;
    }
    case Fault::kDropBursts: {
      std::vector<trace::PacketRecord> out;
      out.reserve(records.size());
      std::size_t i = 0;
      while (i < records.size()) {
        if (rng.bernoulli(spec.intensity)) {
          const std::uint64_t burst = 1 + rng.geometric(kBurstContinueProb);
          const std::size_t dropped = static_cast<std::size_t>(
              std::min<std::uint64_t>(burst, records.size() - i));
          report.affected += dropped;
          i += dropped;
        } else {
          out.push_back(records[i]);
          ++i;
        }
      }
      records = std::move(out);
      break;
    }
    case Fault::kTruncateRecords:
    case Fault::kBitFlips:
      break;  // unreachable (validated above)
  }
  return report;
}

trace::Trace impair_trace(const trace::Trace& t, const ImpairmentSpec& spec,
                          trace::TimePolicy policy, ImpairmentReport* report,
                          trace::AppendStats* stats) {
  std::vector<trace::PacketRecord> records(t.packets().begin(),
                                           t.packets().end());
  const ImpairmentReport rep = impair_records(records, spec);
  if (report != nullptr) *report = rep;
  trace::Trace out;
  for (const auto& rec : records) {
    (void)out.append(rec, policy, stats);
  }
  return out;
}

}  // namespace netsample::faultsim
