// Flow-level reporting, and what packet sampling does to it.
//
// Assembles 5-tuple flows from the full stream and from a 1-in-k sampled
// stream, then compares: sampled flow *counts* cannot be recovered by
// multiplying by k (short flows are missed entirely -- the flow-sampling
// bias NetFlow operators later had to correct for), while per-flow byte
// volumes of the heavy hitters remain well estimated. This is the
// flow-level face of the paper's Section 8 closing remark about sampled
// matrices and small cells.
#include <iostream>

#include "core/samplers.h"
#include "core/targets.h"
#include "flow/sampled_table.h"
#include "net/headers.h"
#include "synth/presets.h"
#include "trace/flows.h"
#include "util/format.h"

using namespace netsample;

namespace {

/// Every flow of `view` (30 s idle timeout), through an uncapped table.
std::vector<trace::FlowRecord> assemble_flows(trace::TraceView view) {
  flow::SampledFlowTable table(MicroDuration::from_seconds(30), 0);
  for (const auto& p : view) table.offer(p);
  table.flush();
  return table.records();
}

}  // namespace

int main() {
  std::cout << "Flow assembly under packet sampling\n"
            << "------------------------------------\n";

  synth::TraceModel model(synth::sdsc_minutes_config(5.0, 31));
  const auto t = model.generate();

  const auto full_flows = assemble_flows(t.view());
  const auto full = trace::flow_stats(full_flows);
  const auto top_full = trace::top_by_packets(full_flows, 5);

  std::cout << "full stream: " << fmt_count(full.packets) << " packets in "
            << fmt_count(full.flows) << " flows (mean "
            << fmt_double(full.mean_flow_packets, 2) << " pkts/flow, mean "
            << fmt_double(full.mean_flow_duration_sec, 2) << " s)\n\n";

  TextTable table({"1/k", "sampled flows", "naive kx flows", "true flows",
                   "flows seen %", "top-5 byte err %"});
  for (std::uint64_t k : {10ULL, 50ULL, 250ULL}) {
    core::SystematicCountSampler sampler(k);
    const auto sample = core::draw(t.view(), sampler);
    const auto sampled_flows =
        assemble_flows(trace::Trace(sample.packets()).view());
    const auto sampled = trace::flow_stats(sampled_flows);

    // Heavy-hitter byte fidelity: match the full top-5 flows in the sampled
    // table (scaled by k).
    double err_sum = 0.0;
    int matched = 0;
    for (const auto& f : top_full) {
      for (const auto& g : sampled_flows) {
        if (g.key == f.key) {
          const double est =
              static_cast<double>(g.bytes) * static_cast<double>(k);
          err_sum +=
              std::abs(est - static_cast<double>(f.bytes)) / f.bytes * 100.0;
          ++matched;
          break;
        }
      }
    }
    const double top_err = matched > 0 ? err_sum / matched : -1.0;

    table.add_row(
        {"1/" + std::to_string(k), fmt_count(sampled.flows),
         fmt_count(sampled.flows * k), fmt_count(full.flows),
         fmt_double(100.0 * static_cast<double>(sampled.flows) /
                        static_cast<double>(full.flows),
                    1),
         matched > 0 ? fmt_double(top_err, 1) : "(none matched)"});
  }
  table.print(std::cout);

  std::cout << "\ntop-5 flows of the full stream:\n";
  TextTable top({"src", "dst", "proto", "dport", "packets", "bytes",
                 "duration s"});
  for (const auto& f : top_full) {
    top.add_row({f.key.src.to_string(), f.key.dst.to_string(),
                 net::ip_proto_name(f.key.protocol),
                 std::to_string(f.key.dst_port), fmt_count(f.packets),
                 fmt_count(f.bytes), fmt_double(f.duration().to_seconds(), 1)});
  }
  top.print(std::cout);

  std::cout
      << "\nReading: sampled flow counts are NOT 1/k of true flow counts --\n"
         "flows shorter than ~k packets are usually missed entirely, so the\n"
         "naive kx expansion over-counts nothing and under-counts flows.\n"
         "Heavy hitters, in contrast, are byte-estimated within a few percent\n"
         "-- the same 'big cells are fine, small cells vanish' picture as the\n"
         "paper's sampled source-destination matrix.\n";
  return 0;
}
