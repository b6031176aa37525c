// Checks of the benchmark's own arithmetic: the summary statistics, span
// self time, open-loop latency accounting, and the mapping from a window's
// row to the FEED that triggered it. Exits non-zero on the first failure;
// perfbench/run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "netsample/netsample.h"
#include "openloop.h"
#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_median_and_quartiles() {
  using perfbench::median;
  using perfbench::quartiles;
  CHECK(near(median({3, 1, 2}), 2));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
  CHECK(near(median({}), 0));
  // Reference values from Python's statistics.quantiles(v, n=4).
  const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  CHECK(near(q10.q1, 2.75) && near(q10.q2, 5.5) && near(q10.q3, 8.25));
  const auto q5 = quartiles({5, 1, 4, 2, 3});
  CHECK(near(q5.q1, 1.5) && near(q5.q2, 3.0) && near(q5.q3, 4.5));
  const auto q2 = quartiles({7, 3});
  CHECK(near(q2.q1, 2.0) && near(q2.q2, 5.0) && near(q2.q3, 8.0));
  CHECK(near(perfbench::iqr_share({1, 2, 3, 4}), (3.75 - 1.25) / 2.5));
}

void test_supported_tail() {
  using perfbench::supported_tail;
  std::vector<double> v;
  for (int i = 1; i <= 19; ++i) v.push_back(i);
  CHECK(!supported_tail(v).has_value());  // the median leaves only 9 beyond
  v.push_back(20);
  auto t = supported_tail(v);
  CHECK(t && near(t->percentile, 50) && near(t->value, 10));
  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  t = supported_tail(v);  // p99.9 leaves 1, p99 leaves 10
  CHECK(t && near(t->percentile, 99) && near(t->value, 990));
  v.push_back(1001);
  t = supported_tail(v);
  CHECK(t && near(t->percentile, 99));
  v.resize(999);
  t = supported_tail(v);  // p99 leaves 9: fall back to p95
  CHECK(t && near(t->percentile, 95));
}

void test_self_time() {
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping: two
  // threads), and [90,120) which runs past the root's end; a grandchild
  // [12,18) under the first child.
  std::vector<Span> spans = {
      {1, 0, 1, "root", 0, 100},  {2, 1, 1, "a", 10, 30},
      {3, 1, 1, "b", 20, 50},     {4, 1, 1, "c", 90, 120},
      {5, 2, 1, "a.inner", 12, 18},
  };
  const auto self = perfbench::self_times_ns(spans);
  CHECK(self.at(1) == 100 - 40 - 10);  // union [10,50) + [90,100)
  CHECK(self.at(2) == 20 - 6);
  CHECK(self.at(3) == 30);
  CHECK(self.at(5) == 6);
  CHECK(near(perfbench::child_coverage(spans, 1), 0.5));
  const auto by_op = perfbench::self_time_by_op(spans);
  CHECK(by_op.at(1).at("a") == 14 && by_op.at(1).at("root") == 50);

  // The recorder: nested ScopedSpans parent to the enclosing one, and a
  // disabled recorder records nothing.
  perfbench::SpanRecorder rec;
  { perfbench::ScopedSpan off(rec, "off"); }
  CHECK(rec.spans().empty());
  rec.set_enabled(true);
  {
    perfbench::ScopedSpan op(rec, "op");
    perfbench::ScopedSpan child(rec, "child");
    CHECK(child.op() == op.id());
  }
  const auto recorded = rec.spans();
  CHECK(recorded.size() == 2 && recorded[1].parent == recorded[0].id &&
        recorded[0].end_ns >= recorded[1].end_ns);
}

void test_open_loop_accounting() {
  const perfbench::PacedPlan plan{4, 100, 1e6, 2};  // 4 sessions, 100 pkt FEEDs
  // 10 FEEDs per session in 2 segments: FEEDs [0,5) and [5,10).
  const auto seg0 = plan.segment_feeds(10, 0);
  const auto seg1 = plan.segment_feeds(10, 1);
  CHECK(seg0.first == 0 && seg0.second == 5 && seg1.first == 5 && seg1.second == 10);
  // Inside a segment FEED f of session s is the ((f-first)*4 + s)-th send:
  // 100 packets = 100 us apart at 1 Mpkt/s.
  CHECK(plan.due_ns(0, 0, 0) == 0);
  CHECK(plan.due_ns(3, 0, 0) == 300'000);
  CHECK(plan.due_ns(1, 2, 0) == 900'000);
  CHECK(plan.due_ns(1, 7, 5) == 900'000);

  // Session 1's due times: segment 0 from t=5 ms, segment 1 from t=1 s.
  std::vector<std::int64_t> due(10);
  for (std::size_t f = 0; f < 10; ++f) {
    const std::size_t first = f < 5 ? 0 : 5;
    due[f] = (f < 5 ? 5'000'000 : 1'000'000'000) + plan.due_ns(1, f, first);
  }
  // A row triggered by packet 250 rode FEED 2; by packet 720, FEED 7.
  CHECK(perfbench::row_latency_ns(plan, due, 250, due[2] + 2'000'000) == 2'000'000);
  CHECK(perfbench::row_latency_ns(plan, due, 720, due[7] + 1'000) == 1'000);
  // A receiver stalled for 50 ms delivers every queued row at the stall's
  // end. Latency from the due time keeps the whole stall for the first row
  // and the remaining part for later ones -- it never drops below the time
  // the row waited, as latency from the actual send (which a stalled
  // generator delays too) would.
  const std::int64_t stall_end = due[0] + 50'000'000;
  for (std::uint64_t pkt = 0; pkt < 500; pkt += 100) {
    const std::int64_t lat = perfbench::row_latency_ns(plan, due, pkt, stall_end);
    CHECK(lat == stall_end - due[plan.feed_of_packet(pkt)]);
    CHECK(lat > 48'000'000);
  }
}

void test_row_to_feed_mapping() {
  using namespace netsample;
  // A stream with one packet every 100 ms; stride 1 s. The window ending
  // at t=1 s is emitted while the packet at t=1.0 s (index 10) arrives.
  SessionSpec spec;
  spec.granularity = 2;
  spec.replications = 1;
  spec.targets = "size";
  spec.window_s = 1;
  spec.stride_s = 1;
  std::vector<trace::PacketRecord> packets;
  for (int i = 0; i < 35; ++i) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{static_cast<std::uint64_t>(i) * 100'000};
    p.size = static_cast<std::uint16_t>(40 + 10 * (i % 7));
    p.protocol = 6;
    packets.push_back(p);
  }
  std::vector<std::string> rows;
  stream::Engine engine(session_lanes(spec), session_engine_options(spec));
  engine.on_snapshot([&](const stream::WindowScore& w) {
    for (const auto& cells : session_row_cells(w)) {
      rows.push_back(json_line(session_row_columns(), cells));
    }
  });
  engine.feed(packets);
  CHECK(rows.size() == 3);  // ticks at 1 s, 2 s, 3 s
  const perfbench::PacedPlan plan{1, 8, 1e6, 1};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    perfbench::RowKey key;
    CHECK(perfbench::parse_row_key(rows[i], &key));
    CHECK(key.tick == i + 1 && !key.is_final);
    CHECK(key.packets == 10 * (i + 1));  // the packet at the tick boundary
    // That packet travels in FEED packets/8 of an 8-packet FEED stream.
    CHECK(plan.feed_of_packet(key.packets) == (10 * (i + 1)) / 8);
  }
  perfbench::RowKey key;
  CHECK(!perfbench::parse_row_key("{\"tick\":1}", &key));
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_supported_tail();
  test_self_time();
  test_open_loop_accounting();
  test_row_to_feed_mapping();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
