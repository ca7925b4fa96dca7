#include "obs/metrics.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

namespace lis::obs {

void Registry::add(std::string_view name, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void Registry::set(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void Registry::observe(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histograms_.emplace(std::string(name), Histogram{1, value, value, value});
    return;
  }
  Histogram& h = it->second;
  ++h.count;
  h.sum += value;
  if (value < h.min) h.min = value;
  if (value > h.max) h.max = value;
}

double Registry::value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = counters_.find(name); it != counters_.end()) return it->second;
  if (auto it = gauges_.find(name); it != gauges_.end()) return it->second;
  return 0.0;
}

Registry::Histogram Registry::histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = histograms_.find(name); it != histograms_.end()) {
    return it->second;
  }
  return {};
}

void Registry::merge(const Registry& other) {
  // Copy under the source lock, fold under ours (avoids lock-order issues).
  std::map<std::string, double, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, Histogram, std::less<>> histograms;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    counters = other.counters_;
    gauges = other.gauges_;
    histograms = other.histograms_;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, v] : counters) counters_[name] += v;
  for (const auto& [name, v] : gauges) gauges_[name] = v;
  for (const auto& [name, h] : histograms) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
      continue;
    }
    Histogram& mine = it->second;
    if (h.count > 0) {
      if (mine.count == 0 || h.min < mine.min) mine.min = h.min;
      if (mine.count == 0 || h.max > mine.max) mine.max = h.max;
      mine.count += h.count;
      mine.sum += h.sum;
    }
  }
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

bool Registry::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

std::string Registry::json() const {
  std::map<std::string, double> flat;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, v] : counters_) flat[name] = v;
    for (const auto& [name, v] : gauges_) flat[name] = v;
    for (const auto& [name, h] : histograms_) {
      flat[name + ".count"] = static_cast<double>(h.count);
      flat[name + ".sum"] = h.sum;
      flat[name + ".min"] = h.min;
      flat[name + ".max"] = h.max;
    }
  }
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, v] : flat) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": " << formatValue(v);
  }
  os << "}";
  return os.str();
}

std::string formatValue(double v) {
  char buf[32];
  // Integral values below 2^63 convert to int64 exactly.
  if (v == std::trunc(v) && std::fabs(v) < 0x1p63) {
    const auto r = std::to_chars(buf, buf + sizeof buf,
                                 static_cast<long long>(v));
    return std::string(buf, r.ptr);
  }
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

}  // namespace lis::obs
