#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace pcmdbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(position));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

template <typename Entries>
std::string metrics_object(const Entries& list) {
  std::string out = "{";
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(list[i].name) +
           ": {\"value\": " + json_number(list[i].value) +
           ", \"unit\": " + json_string(list[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

bool Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, value, unit});
}

void Report::note(const std::string& text) { notes_.push_back(text); }

void Report::print(const std::string& fingerprint_json) const {
  std::printf("fingerprint %s\n", fingerprint_json.c_str());
  for (const auto& text : notes_) std::printf("note: %s\n", text.c_str());
  for (const auto& e : info_) {
    std::printf("info   %-32s %18s %s\n", e.name.c_str(),
                json_number(e.value).c_str(), e.unit.c_str());
  }
  for (const auto& e : metrics_) {
    std::printf("metric %-32s %18s %s\n", e.name.c_str(),
                json_number(e.value).c_str(), e.unit.c_str());
  }
  std::printf("error_rate %s (%llu failed of %llu attempted)\n",
              json_number(error_rate()).c_str(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": " + metrics_object(metrics_) + "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string Report::document(const std::string& workload, std::uint64_t seed,
                             bool trace,
                             const std::string& fingerprint_json) const {
  std::string notes = "[";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) notes += ", ";
    notes += json_string(notes_[i]);
  }
  notes += "]";
  return "{\"workload\": " + json_string(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"trace\": " + (trace ? "true" : "false") +
         ", \"fingerprint\": " + fingerprint_json +
         ", \"correct\": " + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"error_rate\": " + json_number(error_rate()) +
         ", \"metrics\": " + metrics_object(metrics_) +
         ", \"info\": " + metrics_object(info_) + ", \"notes\": " + notes + "}\n";
}

}  // namespace pcmdbench
