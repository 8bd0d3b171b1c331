// Host-time tracing for the benchmark's traced runs, recorded entirely from
// outside the program under test.
//
// HostTraceSink is a sim::TraceSink: the engine calls it on every modelled
// compute, send, receive and collective event, on the execution context of
// the acting rank. The sink stamps each callback with host steady_clock
// time and keys it to Engine::current_phase(), so the phases of a step can
// be given host durations without touching ddm. It also keeps the size of
// every send, which gives the workload's message-size mix.
//
// SpanLog holds harness-side spans around calls into each layer. Both are
// kept in memory and written out once, at exit, as a Chrome trace.
#pragma once

#include "report.hpp"

#include "sim/comm.hpp"
#include "sim/trace_sink.hpp"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pcmdbench {

// One engine phase as seen by the sink: the host-time range of its events
// (across ranks once merged) and what kind of traffic it carried.
struct PhaseStamp {
  int phase = -1;
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;
  std::uint32_t sent_tags = 0;  // bit t set: a message with tag t was sent
};

class HostTraceSink final : public pcmd::sim::TraceSink {
 public:
  explicit HostTraceSink(const pcmd::sim::Engine& engine) : engine_(engine) {}

  void on_attach(int ranks) override;
  void on_compute(int rank, double start, double seconds) override;
  void on_send(int rank, int peer, int tag, std::size_t bytes,
               double clock) override;
  void on_recv(int rank, int peer, int tag, std::size_t bytes, double clock,
               double wait) override;
  void on_collective_begin(int rank, int op, std::size_t width,
                           double clock) override;
  void on_collective_end(int rank, double clock, double wait) override;

  // Per-phase stamps merged over ranks (earliest first, latest last, tags
  // OR-ed), in phase order. Call between phases.
  std::vector<PhaseStamp> merged_phases() const;
  // Per-rank stamps, for the Chrome trace.
  const std::vector<std::vector<PhaseStamp>>& rank_phases() const {
    return ranks_;
  }
  // Payload bytes of every send, all ranks.
  std::vector<std::size_t> send_sizes() const;
  // Payload bytes of every send with `tag`.
  std::vector<std::size_t> send_sizes(int tag) const;

 private:
  struct Send {
    int tag = 0;
    std::uint32_t bytes = 0;
  };
  void stamp(int rank, int sent_tag);

  const pcmd::sim::Engine& engine_;
  // Indexed by rank; each rank only touches its own entry.
  std::vector<std::vector<PhaseStamp>> ranks_;
  std::vector<std::vector<Send>> sends_;
};

// Host time of one step split by ParallelMd phase. The six step phases are
// found from outside: phase A is the one that sends the DLB digest (tag
// ddm::kTagDigest) and B..F are the five engine phases after it. Everything
// else in the step — buddy rounds, rollback replays, work on the calling
// thread between phases — is `other`. Each phase owns the host time from the end of the
// previous phase's last event to the end of its own last event, so the
// seven parts sum exactly to the step() span.
struct StepPhaseTimes {
  static constexpr std::array<const char*, 7> kNames = {
      "a_drift", "b_decide", "c_absorb", "d_halo",
      "e_force", "f_finish", "other"};
  std::array<double, 7> ns{};
};

StepPhaseTimes attribute_step(const std::vector<PhaseStamp>& merged,
                              int first_phase, int end_phase,
                              std::int64_t step_begin_ns,
                              std::int64_t step_end_ns);

// Harness-side spans: one per timed call into a layer.
class SpanLog {
 public:
  void add(const std::string& name, const std::string& layer,
           std::int64_t begin_ns, std::int64_t end_ns);

  // Writes the spans (process "harness") and every rank's phase stamps
  // (process "ranks", one thread per rank) as Chrome trace-event JSON.
  void write_chrome_trace(const std::string& path,
                          const HostTraceSink* sink) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::vector<Span> spans_;
};

// Times `body` and records it as a span when `log` is non-null; returns the
// elapsed host nanoseconds.
template <typename Body>
std::int64_t timed_span(SpanLog* log, const char* name, const char* layer,
                        Body&& body) {
  const std::int64_t begin = now_ns();
  body();
  const std::int64_t end = now_ns();
  if (log != nullptr) log->add(name, layer, begin, end);
  return end - begin;
}

}  // namespace pcmdbench
