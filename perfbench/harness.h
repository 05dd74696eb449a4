// Harness arithmetic shared by every perfbench workload: exact-sample
// percentiles, the seeded open-loop arrival schedule, span self-time
// folding, and the JSON report perfbench/run.py reads.
//
// Every end-to-end timing is a nearest-rank percentile over raw samples
// kept by the benchmark itself; the library's log-bucketed histograms are
// never read for an end-to-end number.

#pragma once
#ifndef C2LSH_PERFBENCH_HARNESS_H_
#define C2LSH_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/util/random.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
inline double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// Nearest-rank percentile: the smallest sample x such that at least a
/// share `p` of the samples are <= x (rank ceil(p * N), 1-based). p = 0
/// gives the minimum. Returns 0 for an empty sample.
inline double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Mean microseconds per call of a loop body `fn` that makes
/// `calls_per_rep` calls, repeated until at least `min_ms` have passed.
template <typename Fn>
double TimeMicros(Fn fn, size_t calls_per_rep, double min_ms = 50.0) {
  size_t calls = 0;
  const double t0 = NowSeconds();
  do {
    fn();
    calls += calls_per_rep;
  } while ((NowSeconds() - t0) * 1e3 < min_ms);
  return (NowSeconds() - t0) * 1e6 / static_cast<double>(calls);
}

/// Arrival offsets (seconds from phase start) of a Poisson process with
/// `rate` arrivals per second over [0, seconds): exponential gaps drawn
/// from `seed`, so one seed always yields the same schedule.
inline std::vector<double> PoissonSchedule(double rate, double seconds,
                                           uint64_t seed) {
  std::vector<double> out;
  if (rate <= 0.0 || seconds <= 0.0) return out;
  c2lsh::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform(0.0, 1.0)) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

/// Index drawn from unnormalized weights (a zipf tenant mix, an op mix).
inline size_t Pick(const std::vector<double>& weights, c2lsh::Rng* rng) {
  double total = 0.0;
  for (double w : weights) total += w;
  double u = rng->Uniform(0.0, total);
  for (size_t i = 0; i < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

/// Zipf weights 1/i^s for ranks 1..n.
inline std::vector<double> ZipfWeights(size_t n, double s) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  return w;
}

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the part of [begin, end) that the union of `children` covers.
/// Children are clipped to the parent; overlapping children count once.
inline double CoveredLength(double begin, double end, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double covered = 0.0;
  double cursor = begin;
  for (const Interval& c : children) {
    const double lo = std::max(c.begin, cursor);
    const double hi = std::min(c.end, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

/// A span's self time: its duration minus the part its children cover.
inline double SelfTime(const Interval& parent, const std::vector<Interval>& children) {
  return (parent.end - parent.begin) -
         CoveredLength(parent.begin, parent.end, children);
}

/// Peak resident set of this process in MiB (VmHWM), 0 if unreadable.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// What one workload run produced: metrics with units and sample counts,
/// the configuration it ran, and any correctness violation. Serialized as
/// one JSON object for perfbench/run.py.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0) {
    metrics_[name] = Entry{value, unit, samples};
  }
  void Config(const std::string& key, double value) { config_[key] = Num(value); }
  void Config(const std::string& key, const std::string& value) {
    config_[key] = Quote(value);
  }
  void Violation(const std::string& what) {
    if (violations_.size() < 20) violations_.push_back(what);
    ++violation_count_;
  }
  /// Marks the run invalid (the measurement itself is untrustworthy, e.g.
  /// the load generator fell behind its schedule).
  void Invalidate(const std::string& why) { invalid_ = why; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string ToJson(const std::string& workload) const {
    std::string out = "{\"workload\": " + Quote(workload);
    out += ", \"correct\": ";
    out += violation_count_ == 0 ? "true" : "false";
    out += ", \"invalid\": " + Quote(invalid_);
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"violation_count\": " + std::to_string(violation_count_);
    out += ", \"violations\": [";
    for (size_t i = 0; i < violations_.size(); ++i) {
      out += (i ? ", " : "") + Quote(violations_[i]);
    }
    out += "], \"config\": {";
    bool first = true;
    for (const auto& [k, v] : config_) {
      out += (first ? "" : ", ") + Quote(k) + ": " + v;
      first = false;
    }
    out += "}, \"metrics\": {";
    first = true;
    for (const auto& [k, e] : metrics_) {
      out += (first ? "" : ", ") + Quote(k) + ": {\"value\": " + Num(e.value) +
             ", \"unit\": " + Quote(e.unit) +
             ", \"samples\": " + std::to_string(e.samples) + "}";
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  struct Entry {
    double value;
    std::string unit;
    size_t samples;
  };

  static std::string Num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  std::map<std::string, Entry> metrics_;
  std::map<std::string, std::string> config_;
  std::vector<std::string> violations_;
  size_t violation_count_ = 0;
  std::string invalid_;
};

}  // namespace perfbench

#endif  // C2LSH_PERFBENCH_HARNESS_H_
