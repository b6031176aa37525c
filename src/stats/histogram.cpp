#include "stats/histogram.h"

#include <algorithm>
#include <stdexcept>

#include "util/format.h"

namespace netsample::stats {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  if (!std::is_sorted(edges_.begin(), edges_.end()) ||
      std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
    throw std::invalid_argument("histogram edges must be strictly increasing");
  }
  counts_.assign(edges_.size() + 1, 0);
}

Histogram Histogram::equal_width(double width, std::size_t bin_count) {
  if (width <= 0 || bin_count == 0) {
    throw std::invalid_argument("equal_width requires width>0 and bins>0");
  }
  std::vector<double> edges;
  edges.reserve(bin_count);
  // n interior edges -> n+1 bins; we want bin_count bins total including the
  // open-ended top bin, so emit bin_count-1 interior edges above zero... but
  // the natural NNStat layout is [0,w),[w,2w),...,[ (n-1)w, inf ), with an
  // implicit empty (-inf,0) bin we fold away by starting edges at 0.
  for (std::size_t i = 0; i < bin_count; ++i) {
    edges.push_back(width * static_cast<double>(i));
  }
  return Histogram(std::move(edges));
}

Histogram Histogram::with_counts(std::vector<double> edges,
                                 std::vector<std::uint64_t> counts) {
  Histogram h(std::move(edges));
  if (counts.size() != h.counts_.size()) {
    throw std::invalid_argument("with_counts: counts/edges size mismatch");
  }
  h.counts_ = std::move(counts);
  h.total_ = 0;
  for (const auto c : h.counts_) h.total_ += c;
  return h;
}

std::size_t Histogram::bin_index(double x) const {
  // upper_bound over edges: number of edges <= x gives the bin index.
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  return static_cast<std::size_t>(it - edges_.begin());
}

void Histogram::add(double x, std::uint64_t weight) {
  counts_[bin_index(x)] += weight;
  total_ += weight;
}

std::vector<double> Histogram::proportions() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return out;
}

std::vector<double> Histogram::scaled_counts(double target_total) const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  const double scale = target_total / static_cast<double>(total_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) * scale;
  }
  return out;
}

// Labels are built by append: GCC 12 at -O3 reports a false -Wrestrict on
// `"literal" + std::string&&` (its operator+ inlines an insert at 0).
std::string Histogram::bin_label(std::size_t bin) const {
  if (edges_.empty()) return "(all)";
  if (bin == 0) return std::string("< ").append(fmt_double(edges_.front(), 0));
  if (bin >= edges_.size()) {
    return std::string(">= ").append(fmt_double(edges_.back(), 0));
  }
  return std::string("[")
      .append(fmt_double(edges_[bin - 1], 0))
      .append(", ")
      .append(fmt_double(edges_[bin], 0))
      .append(")");
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

void Histogram::merge(const Histogram& other) {
  if (other.edges_ != edges_) {
    throw std::invalid_argument("merging histograms with different edges");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

}  // namespace netsample::stats
