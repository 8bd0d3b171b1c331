// pcmdbench: runs one benchmark workload and prints its metrics.
//
//   pcmdbench --workload fig5-seq|paper36-heal|serve-mixed --seed N
//             --seconds S --trace 0|1 [--out DIR] [--tiny 0|1]
//             [--fabricate-error 0|1]
//
// The last line of standard output is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The lines before it repeat every metric with its unit, the
// run's information values and the machine fingerprint; DIR receives the
// full result document and, for traced runs, a Chrome trace.
//
// Exit codes: 0 correct result, 1 incorrect result or run failure, 2 bad
// command line.

#include "fingerprint.hpp"
#include "workloads.hpp"

#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

constexpr const char* kUsage =
    "usage: pcmdbench --workload fig5-seq|paper36-heal|serve-mixed "
    "--seed N --seconds S --trace 0|1 [--out DIR] [--tiny 0|1] "
    "[--fabricate-error 0|1]";

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    if (text.empty() || text[0] == '-') throw std::invalid_argument(text);
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != text.size()) {
    throw UsageError("--" + flag + ": expected a non-negative integer, got '" +
                     text + "'");
  }
  return value;
}

bool parse_bool(const std::string& flag, const std::string& text) {
  if (text == "0") return false;
  if (text == "1") return true;
  throw UsageError("--" + flag + ": expected 0 or 1, got '" + text + "'");
}

pcmdbench::Options parse(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() == 2) {
      throw UsageError("unexpected argument '" + arg + "'");
    }
    if (i + 1 >= argc) throw UsageError(arg + ": missing value");
    if (!flags.emplace(arg.substr(2), argv[++i]).second) {
      throw UsageError(arg + ": given twice");
    }
  }
  pcmdbench::Options o;
  const auto take = [&](const std::string& name, bool required) {
    const auto it = flags.find(name);
    if (it == flags.end()) {
      if (required) throw UsageError("--" + name + " is required");
      return std::string();
    }
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  o.workload = take("workload", true);
  if (o.workload != "fig5-seq" && o.workload != "paper36-heal" &&
      o.workload != "serve-mixed") {
    throw UsageError("--workload: unknown workload '" + o.workload +
                     "' (accepted: fig5-seq, paper36-heal, serve-mixed)");
  }
  o.seed = parse_uint("seed", take("seed", true));
  const std::uint64_t seconds = parse_uint("seconds", take("seconds", true));
  if (seconds < 1 || seconds > 600) {
    throw UsageError("--seconds: expected 1..600, got " +
                     std::to_string(seconds));
  }
  o.seconds = static_cast<double>(seconds);
  o.trace = parse_bool("trace", take("trace", true));
  if (const auto out = take("out", false); !out.empty()) o.out_dir = out;
  if (const auto tiny = take("tiny", false); !tiny.empty()) {
    o.tiny = parse_bool("tiny", tiny);
  }
  if (const auto bad = take("fabricate-error", false); !bad.empty()) {
    o.fabricate_error = parse_bool("fabricate-error", bad);
  }
  if (!flags.empty()) {
    throw UsageError("unknown flag --" + flags.begin()->first);
  }
  return o;
}

// Host time of a fixed single-threaded integer kernel (median of 5). It is
// printed before and after the workload as information, so a reader can
// tell a slower program from a slower machine.
double calibration_ms() {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t start = pcmdbench::now_ns();
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 2000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    [[maybe_unused]] volatile std::uint64_t keep = x;
    samples.push_back(1e-6 * static_cast<double>(pcmdbench::now_ns() - start));
  }
  return pcmdbench::median(samples);
}

// Cumulative {steal, total} jiffies of all CPUs from /proc/stat; {0, 0}
// where the file is missing. Steal is time the hypervisor gave this
// machine's CPUs to someone else.
std::pair<double, double> cpu_steal_total() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double total = 0.0, steal = 0.0, value = 0.0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

}  // namespace

int main(int argc, char** argv) {
  pcmdbench::Options options;
  try {
    options = parse(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "pcmdbench: %s\n%s\n", e.what(), kUsage);
    return 2;
  }
  const auto fingerprint = pcmdbench::machine_fingerprint();
  pcmdbench::Report report;
  if (!fingerprint.release()) {
    report.note("NOT A RELEASE BUILD (" + fingerprint.build_type +
                "): timings are not comparable");
  }
  const double calibration_before = calibration_ms();
  const auto cpu_before = cpu_steal_total();
  try {
    if (options.workload == "fig5-seq") {
      pcmdbench::run_fig5_seq(options, report);
    } else if (options.workload == "paper36-heal") {
      pcmdbench::run_paper36_heal(options, report);
    } else {
      pcmdbench::run_serve_mixed(options, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcmdbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  report.info("calibration_ms_before", calibration_before, "ms");
  report.info("calibration_ms_after", calibration_ms(), "ms");
  const auto cpu_after = cpu_steal_total();
  const double cpu_ticks = cpu_after.second - cpu_before.second;
  report.info("host_steal_share",
              cpu_ticks > 0 ? (cpu_after.first - cpu_before.first) / cpu_ticks
                            : 0.0,
              "ratio");
  const std::string path = options.out_dir + "/result-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream(path) << report.document(options.workload, options.seed,
                                         options.trace, fingerprint.json());
  report.print(fingerprint.json());
  return report.correct() ? 0 : 1;
}
