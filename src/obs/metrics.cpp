#include "obs/metrics.hpp"

#include "sim/comm.hpp"
#include "sim/fault.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace pcmd::obs {

MetricsRecorder::MetricsRecorder(const sim::Engine& engine)
    : engine_(&engine), last_(total()) {}

MetricsRecorder::Snapshot MetricsRecorder::total() const {
  Snapshot snapshot;
  for (int r = 0; r < engine_->size(); ++r) {
    const sim::RankCounters& c = engine_->counters(r);
    snapshot.wait += c.comm_wait_seconds;
    snapshot.collective += c.collective_seconds;
    snapshot.messages += c.messages_sent;
    snapshot.bytes += c.bytes_sent;
    snapshot.recv_timeouts += c.recv_timeouts;
  }
  if (const sim::FaultInjector* injector = engine_->fault_injector()) {
    const sim::FaultCounters fc = injector->counters();
    snapshot.faults_dropped = fc.messages_dropped;
    snapshot.faults_corrupted = fc.messages_corrupted;
    snapshot.faults_delayed = fc.messages_delayed;
  }
  return snapshot;
}

const StepMetrics& MetricsRecorder::record(StepMetrics row) {
  const Snapshot now = total();
  row.wait_seconds = now.wait - last_.wait;
  row.collective_seconds = now.collective - last_.collective;
  row.messages = now.messages - last_.messages;
  row.bytes = now.bytes - last_.bytes;
  row.recv_timeouts = now.recv_timeouts - last_.recv_timeouts;
  row.faults_dropped = now.faults_dropped - last_.faults_dropped;
  row.faults_corrupted = now.faults_corrupted - last_.faults_corrupted;
  row.faults_delayed = now.faults_delayed - last_.faults_delayed;
  last_ = now;
  rows_.push_back(row);
  return rows_.back();
}

std::string csv_header() {
  return "step,t_step,force_max,force_avg,force_min,wait_seconds,"
         "collective_seconds,messages,bytes,transfers,potential_energy,"
         "kinetic_energy,temperature,retransmissions,recv_timeouts,"
         "faults_dropped,faults_corrupted,faults_delayed,checkpoint_bytes,"
         "rollbacks,failovers,particles_recovered,imbalance,cells_moved";
}

namespace {
// Shortest representation that round-trips a double exactly.
std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}
}  // namespace

void write_csv(std::ostream& os, std::span<const StepMetrics> rows) {
  os << csv_header() << '\n';
  for (const StepMetrics& r : rows) {
    os << r.step << ',' << num(r.t_step) << ',' << num(r.force_max) << ','
       << num(r.force_avg) << ',' << num(r.force_min) << ','
       << num(r.wait_seconds) << ',' << num(r.collective_seconds) << ','
       << r.messages << ',' << r.bytes << ',' << r.transfers << ','
       << num(r.potential_energy) << ',' << num(r.kinetic_energy) << ','
       << num(r.temperature) << ',' << r.retransmissions << ','
       << r.recv_timeouts << ',' << r.faults_dropped << ','
       << r.faults_corrupted << ',' << r.faults_delayed << ','
       << r.checkpoint_bytes << ',' << r.rollbacks << ',' << r.failovers
       << ',' << r.particles_recovered << ',' << num(r.imbalance) << ','
       << r.cells_moved << '\n';
  }
}

bool write_csv_file(const std::string& path,
                    std::span<const StepMetrics> rows) {
  std::ofstream file(path);
  if (!file) return false;
  write_csv(file, rows);
  return file.good();
}

}  // namespace pcmd::obs
