// Small shared helpers of the benchmark: clocks, order statistics, hashing
// and the metric record every phase appends to.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile of `values` (q in [0, 1]); NaN for an empty set,
/// so a metric whose source recorded nothing cannot pass as a number.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Runs `fn` at least `min_reps` times and then until `budget_s` seconds
/// have passed or `max_reps` runs are done; returns the median seconds.
inline double TimeMedian(const std::function<void()>& fn, int min_reps,
                         int max_reps, double budget_s) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < max_reps &&
         (static_cast<int>(samples.size()) < min_reps ||
          SecondsSince(start) < budget_s)) {
    const Clock::time_point t = Clock::now();
    fn();
    samples.push_back(SecondsSince(t));
  }
  return Median(std::move(samples));
}

/// SplitMix64 finalizer: independent streams from one workload seed.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a, folded over several strings by passing the previous hash.
inline uint64_t Fnv1a(const std::string& bytes,
                      uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// A response line without its volatile tail: everything from `"millis"`
/// on (the traced diagnostics ride behind it), exactly what
/// api::Response::ToStableJson drops.
inline std::string StableLine(const std::string& line) {
  const size_t at = line.rfind(", \"millis\": ");
  if (at == std::string::npos) return line;
  return line.substr(0, at) + "}";
}

inline bool IsErrorLine(const std::string& line) {
  return line.find("\"ok\": false") != std::string::npos;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
