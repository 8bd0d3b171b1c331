#include "obs/session.hpp"

#include "obs/chrome_trace.hpp"
#include "sim/comm.hpp"

#include <cstdio>

namespace pcmd::obs {

TraceSession::TraceSession(sim::Engine& engine, std::string path,
                           TraceCollector::Options options)
    : engine_(&engine), path_(std::move(path)), collector_(options) {
  if (active()) engine_->set_trace_sink(&collector_);
}

TraceSession::~TraceSession() {
  if (active()) {
    if (!finished_) finish();
    engine_->set_trace_sink(nullptr);
  }
}

bool TraceSession::finish(std::span<const StepMetrics> metrics) {
  if (!active() || finished_) return true;
  finished_ = true;
  bool ok = true;
  if (!write_chrome_trace_file(path_ + ".json", collector_)) {
    std::fprintf(stderr, "trace: failed to write %s.json\n", path_.c_str());
    ok = false;
  }
  if (!metrics.empty() && !write_csv_file(path_ + ".csv", metrics)) {
    std::fprintf(stderr, "trace: failed to write %s.csv\n", path_.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace pcmd::obs
