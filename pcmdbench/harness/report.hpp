// Result bookkeeping shared by every workload: host clocks, order
// statistics, correctness tallies and the final result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pcmdbench {

// Host monotonic time in nanoseconds since an arbitrary origin.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// What the benchmark prints: named metrics with units, plus the count of
// operations attempted and failed. Every correctness check and every timed
// operation goes through attempt(), so error_rate = failed / attempted.
class Report {
 public:
  // Counts one operation; a failed one is also described on stdout.
  bool attempt(bool ok, const std::string& what);
  // Counts `n` operations that all succeeded (e.g. a batch of MD steps).
  void succeeded(std::uint64_t n) { attempted_ += n; }

  void metric(const std::string& name, double value, const std::string& unit);
  // Informational line printed with the report but not in the result JSON.
  void info(const std::string& name, double value, const std::string& unit);
  void note(const std::string& text);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double error_rate() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

  // Human-readable table, then (last line) the result JSON object.
  void print(const std::string& fingerprint_json) const;
  // The full result (metrics, info, fingerprint) as one JSON document.
  std::string document(const std::string& workload, std::uint64_t seed,
                       bool trace, const std::string& fingerprint_json) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> info_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Shortest round-trip decimal form of a double (JSON-safe; never inf/nan).
std::string json_number(double value);
std::string json_string(const std::string& text);

}  // namespace pcmdbench
