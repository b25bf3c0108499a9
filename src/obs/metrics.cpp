#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "util/error.hpp"

namespace stellaris::obs {

namespace {

void atomic_add(std::atomic<double>& a, double dx) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + dx, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

/// JSON number at %.9g (null for non-finite values: JSON has no NaN/Inf).
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void Gauge::add(double dx) { atomic_add(v_, dx); }

FixedHistogram::FixedHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins) {
  STELLARIS_CHECK_MSG(bins > 0 && hi > lo,
                      "histogram needs bins > 0 and hi > lo");
}

void FixedHistogram::observe(double x) {
  const auto last = static_cast<double>(counts_.size() - 1);
  const double idx = std::clamp((x - lo_) / width_, 0.0, last);
  counts_[static_cast<std::size_t>(idx)].fetch_add(
      1, std::memory_order_relaxed);
  n_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

double FixedHistogram::mean() const {
  const std::uint64_t n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

double FixedHistogram::min() const {
  const double m = min_.load(std::memory_order_relaxed);
  return std::isfinite(m) ? m : 0.0;
}

double FixedHistogram::max() const {
  const double m = max_.load(std::memory_order_relaxed);
  return std::isfinite(m) ? m : 0.0;
}

double FixedHistogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t c = bin_count(i);
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      const double frac =
          c ? (target - static_cast<double>(cum)) / static_cast<double>(c)
            : 0.0;
      return std::clamp(bin_lo(i) + frac * width_, min(), max());
    }
    cum += c;
  }
  return max();
}

void FixedHistogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  n_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  WriterLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  WriterLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                           double hi, std::size_t bins) {
  WriterLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<FixedHistogram>(lo, hi, bins);
  return *slot;
}

void MetricsRegistry::reset() {
  WriterLock lock(mu_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  ReaderLock lock(mu_);
  os << "{\n\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\n\"" << name << "\":" << c->value();
    first = false;
  }
  os << "\n},\n\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\n\"" << name << "\":" << num(g->value());
    first = false;
  }
  os << "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << "\n\"" << name << "\":{\"lo\":" << num(h->lo())
       << ",\"hi\":" << num(h->hi()) << ",\"count\":" << h->count()
       << ",\"sum\":" << num(h->sum()) << ",\"min\":" << num(h->min())
       << ",\"max\":" << num(h->max()) << ",\"buckets\":[";
    for (std::size_t i = 0; i < h->bins(); ++i)
      os << (i ? "," : "") << h->bin_count(i);
    os << "]}";
    first = false;
  }
  os << "\n}\n}\n";
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  ReaderLock lock(mu_);
  os << "kind,name,field,value\n";
  for (const auto& [name, c] : counters_)
    os << "counter," << name << ",value," << c->value() << "\n";
  for (const auto& [name, g] : gauges_)
    os << "gauge," << name << ",value," << num(g->value()) << "\n";
  for (const auto& [name, h] : histograms_) {
    os << "histogram," << name << ",count," << h->count() << "\n";
    os << "histogram," << name << ",sum," << num(h->sum()) << "\n";
    os << "histogram," << name << ",mean," << num(h->mean()) << "\n";
    os << "histogram," << name << ",min," << num(h->min()) << "\n";
    os << "histogram," << name << ",max," << num(h->max()) << "\n";
    os << "histogram," << name << ",p50," << num(h->quantile(0.5)) << "\n";
    os << "histogram," << name << ",p95," << num(h->quantile(0.95)) << "\n";
    os << "histogram," << name << ",p99," << num(h->quantile(0.99)) << "\n";
  }
}

bool MetricsRegistry::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv)
    write_csv(out);
  else
    write_json(out);
  return static_cast<bool>(out);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace stellaris::obs
