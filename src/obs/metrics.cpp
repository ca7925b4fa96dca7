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

double Registry::value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = counters_.find(name); it != counters_.end()) return it->second;
  if (auto it = gauges_.find(name); it != gauges_.end()) return it->second;
  return 0.0;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
}

std::string Registry::json() const {
  std::map<std::string, double> flat;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, v] : counters_) flat[name] = v;
    for (const auto& [name, v] : gauges_) flat[name] = v;
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
