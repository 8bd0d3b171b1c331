// TraceSession: the `--trace PATH` glue of run::run_trajectory.
//
//   obs::TraceSession session(engine, spec.trace_path.value_or(""));
//   ... run the simulation, passing session.collector() to the engines ...
//   session.finish(recorder.rows());
//
// With an empty path the session is inert: nothing attaches, nothing is
// written, and collector() is nullptr — callers pass that straight into
// ParallelMdConfig::trace. With a path, finish() (or the destructor, if
// finish was never called) writes `PATH.json` as Chrome trace-event JSON
// and `PATH.csv` with the per-step metrics handed to finish().
#pragma once

#include "obs/collector.hpp"
#include "obs/metrics.hpp"

#include <span>
#include <string>

namespace pcmd::sim {
class Engine;
}

namespace pcmd::obs {

class TraceSession {
 public:
  TraceSession(sim::Engine& engine, std::string path,
               TraceCollector::Options options = {});
  // Detaches from the engine; writes the trace if finish() was never called.
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const { return !path_.empty(); }
  // nullptr when inactive — safe to hand to instrumented engines directly.
  TraceCollector* collector() { return active() ? &collector_ : nullptr; }

  // Writes `PATH.json` (Chrome JSON) and, when `metrics` is non-empty,
  // `PATH.csv`. Returns false if any file failed to write (also reported
  // on stderr). No-op when inactive or already finished.
  bool finish(std::span<const StepMetrics> metrics = {});

 private:
  sim::Engine* engine_;
  std::string path_;
  TraceCollector collector_;
  bool finished_ = false;
};

}  // namespace pcmd::obs
