#include "spans.h"

#include <algorithm>
#include <fstream>

namespace perfbench {
namespace {

thread_local std::uint32_t tl_current = 0;
thread_local std::uint32_t tl_op = 0;

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

}  // namespace

std::uint32_t SpanRecorder::begin(const char* name, std::uint32_t parent,
                                  std::uint32_t op) {
  if (!enabled_) return 0;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.op = op == 0 ? s.id : op;
  s.name = name;
  s.start_ns = t;
  s.end_ns = t;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint32_t id) {
  if (id == 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = t;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder& rec, const char* name)
    : ScopedSpan(rec, name, tl_current, tl_op) {}

ScopedSpan::ScopedSpan(SpanRecorder& rec, const char* name,
                       std::uint32_t parent, std::uint32_t op)
    : rec_(rec), saved_current_(tl_current), saved_op_(tl_op) {
  id_ = rec_.begin(name, parent, op);
  if (id_ != 0) {
    op_ = op == 0 ? id_ : op;
    tl_current = id_;
    tl_op = op_;
  }
}

ScopedSpan::~ScopedSpan() {
  rec_.end(id_);
  tl_current = saved_current_;
  tl_op = saved_op_;
}

std::unordered_map<std::uint32_t, std::int64_t> self_times_ns(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::unordered_map<std::uint32_t, std::int64_t> out;
  for (const Span& s : spans) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = children.find(s.id);
    const std::int64_t covered =
        it == children.end() ? 0 : covered_ns(it->second, s.start_ns, s.end_ns);
    out[s.id] = dur - covered;
  }
  return out;
}

double child_coverage(const std::vector<Span>& spans, std::uint32_t root) {
  const Span* r = nullptr;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& s : spans) {
    if (s.id == root) r = &s;
    if (s.parent == root) iv.emplace_back(s.start_ns, s.end_ns);
  }
  if (r == nullptr || r->end_ns <= r->start_ns) return 0.0;
  return static_cast<double>(covered_ns(iv, r->start_ns, r->end_ns)) /
         static_cast<double>(r->end_ns - r->start_ns);
}

std::map<std::uint32_t, std::map<std::string, std::int64_t>> self_time_by_op(
    const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::uint32_t, std::map<std::string, std::int64_t>> out;
  for (const Span& s : spans) out[s.op][s.name] += self.at(s.id);
  return out;
}

bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
