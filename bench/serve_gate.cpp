// The committed scheduler-throughput gate.
//
// Measures the end-to-end job rate of the serve::Scheduler — spec parse,
// queueing, a full small ParallelMd run per job inside the containment
// boundary, result-store persistence — and writes one owned key:
//
//   serve_jobs_per_sec   clean jobs drained per wall-clock second
//
// Jobs are uniform small clean runs (distinct seeds, so the idempotency
// cache never short-circuits the work); each sample is a fresh store and
// scheduler, and the best of --repeats samples is kept, same one-sided
// noise argument as perf_gate.
//
// The store is file-backed in FlushMode::kOnCompact — the production serve
// configuration — so the metric includes durable persistence (one sorted
// rewrite at shutdown) without the retired per-put whole-file rewrite that
// used to make persistence O(N^2) in the store size.
//
//   ./serve_gate [--jobs 48] [--workers 4] [--repeats 3]
//                [--store BENCH_serve_store.jsonl]
//                [--out BENCH_serve.json] [--merge 0|1]
//                [--check BASELINE.json] [--tolerance 0.15]
//
// --check compares against the committed BENCH_perf.json, which this gate
// shares with perf_gate; only serve_jobs_per_sec is owned (and checked)
// here. Regenerate the shared baseline with --out BENCH_perf.json --merge 1.
// A --check naming the --out file exits 2 before anything is measured.

#include "scoreboard.hpp"

#include "run/run_spec.hpp"
#include "serve/scheduler.hpp"
#include "util/cli.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace pcmd;

namespace {

double run_queue(const std::vector<std::string>& specs, int workers,
                 const std::string& store_path) {
  std::remove(store_path.c_str());  // each sample starts cold
  serve::ResultStore store(store_path, serve::FlushMode::kOnCompact);
  serve::SchedulerConfig config;
  config.workers = workers;
  const auto start = std::chrono::steady_clock::now();
  {
    serve::Scheduler scheduler(config, store);
    for (const auto& text : specs) scheduler.submit(text);
    scheduler.drain();
  }  // destructor stops the pool and compacts the store file — timed
  const auto stop = std::chrono::steady_clock::now();
  if (store.size() != specs.size()) {
    std::fprintf(stderr, "serve_gate: %zu of %zu jobs reached the store\n",
                 store.size(), specs.size());
    std::exit(1);
  }
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

namespace {

constexpr run::Usage kUsage{
    .program = "serve_gate",
    .synopsis = "[--jobs N] [--workers W] [--repeats R] [--store PATH] "
                "[--out PATH] [--merge 0|1] [--check PATH] [--tolerance F]"};

int run_main(const Cli& cli) {
  const int jobs = static_cast<int>(cli.get_int("jobs", 48));
  const int workers = static_cast<int>(cli.get_int("workers", 4));
  const int repeats = static_cast<int>(cli.get_int("repeats", 3));
  const std::string store_path = cli.get("store", "BENCH_serve_store.jsonl");
  const std::string out_path = cli.get("out", "BENCH_serve.json");
  const bool merge = cli.get_bool("merge", false);
  const auto check_path = cli.get_optional("check");
  const double tolerance = cli.get_double("tolerance", 0.15);
  run::require_known_flags(cli, kUsage);
  bench::require_distinct_check(out_path, check_path);

  std::vector<std::string> specs;
  specs.reserve(jobs);
  for (int i = 0; i < jobs; ++i) {
    specs.push_back("--pe 9 --m 2 --density 0.2 --steps 8 --seed " +
                    std::to_string(5000 + i));
  }

  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    best = std::min(best, run_queue(specs, workers, store_path));
    std::printf("repeat %d/%d: %d jobs in %.3fs\n", r + 1, repeats, jobs,
                best);
  }
  std::remove(store_path.c_str());

  bench::Scoreboard board;
  board["serve_jobs_per_sec"] = static_cast<double>(jobs) / best;
  std::printf("\nscoreboard (best of %d):\n", repeats);
  for (const auto& [key, value] : board) {
    std::printf("  %-20s %14.1f\n", key.c_str(), value);
  }
  bench::write_scoreboard(out_path, board, merge);
  std::printf("wrote %s\n", out_path.c_str());

  if (check_path) {
    const auto baseline = bench::read_scoreboard(*check_path);
    std::printf("\nchecking against %s (tolerance %.0f%%):\n",
                check_path->c_str(), 100.0 * tolerance);
    const int failures = bench::check_against(board, baseline, tolerance);
    if (failures > 0) {
      std::printf("serve gate FAILED: %d metric(s) regressed beyond %.0f%%\n",
                  failures, 100.0 * tolerance);
      return 1;
    }
    std::puts("serve gate passed.");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run::guarded_main(argc, argv, kUsage, run_main);
}
