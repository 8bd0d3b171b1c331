// fig5-seq and paper36-heal: ddm::ParallelMd on the paper's systems.
//
// A run repeats identical *episodes* until its host seconds are spent. An
// episode generates the seeded system, builds the engine and ParallelMd
// (timed together as set-up), times every step() of a fixed step count,
// and checks its outputs. Because every episode of a run replays the same
// trajectory, virtual time and final energies must repeat bitwise across
// episodes — a check in its own right — and the host time of each step
// index can be compared across episodes (see the typical step profile in
// run_md_case).

#include "host_trace.hpp"
#include "md_layers.hpp"
#include "workloads.hpp"

#include "ddm/parallel_md.hpp"
#include "ddm/wire.hpp"
#include "md/cell_grid.hpp"
#include "run/run_spec.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"
#include "util/checksum.hpp"
#include "util/pbc.hpp"
#include "util/rng.hpp"
#include "workload/paper_system.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

namespace pcmdbench {

using namespace pcmd;

namespace {

int engine_ranks(const MdCase& c) {
  const auto& healing = c.spec.fault_tolerance.healing;
  return c.spec.system.pe_count + (healing.enabled ? healing.spares : 0);
}

std::unique_ptr<sim::Engine> make_engine(bool threaded, int ranks,
                                         const sim::MachineModel& machine) {
  if (threaded) return std::make_unique<sim::ThreadEngine>(ranks, machine);
  return std::make_unique<sim::SeqEngine>(ranks, machine);
}

sim::RankCounters total_counters(const sim::Engine& engine) {
  sim::RankCounters sum;
  for (int r = 0; r < engine.size(); ++r) {
    const auto& c = engine.counters(r);
    sum.compute_seconds += c.compute_seconds;
    sum.comm_wait_seconds += c.comm_wait_seconds;
    sum.collective_seconds += c.collective_seconds;
    sum.messages_sent += c.messages_sent;
    sum.bytes_sent += c.bytes_sent;
  }
  return sum;
}

struct StepWindow {
  int first_phase = 0;
  int end_phase = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

// One episode: set-up, `steps` timed steps, output checks.
struct Episode {
  bool ok = true;
  std::size_t particles = 0;
  double setup_s = 0.0;
  double gen_ms = 0.0;
  std::vector<double> step_ms;  // host, per step()
  std::vector<double> t_step;   // virtual seconds, per step
  std::vector<double> potential, kinetic;
  // Deterministic totals over the episode's steps.
  double pairs = 0, transfers = 0, cells_moved = 0, imbalance = 0;
  double retransmissions = 0, checkpoint_bytes = 0;
  double messages = 0, bytes = 0, phases = 0;
  double comm_wait_share = 0;
  ddm::RecoveryCounters recovery;
  // Traced episodes only.
  std::unique_ptr<HostTraceSink> sink;
  std::array<double, 7> phase_ns{};
  md::ParticleVector snapshot;  // gathered at the middle step
  double checkpoint_ms = 0, checkpoint_mb = 0, resume_ms = 0;
};

Episode run_episode(const MdCase& c, bool threaded, int steps, SpanLog* log,
                    bool fabricate_error, Report& report) {
  Episode ep;
  const bool traced = log != nullptr;
  const std::int64_t setup_begin = now_ns();
  md::ParticleVector initial;
  ep.gen_ms = 1e-6 * static_cast<double>(
      timed_span(log, "workload::make_paper_system", "workload", [&] {
        Rng rng(c.spec.system.seed);
        initial = workload::make_paper_system(c.spec.system, rng);
      }));
  ep.particles = initial.size();
  const int ranks = engine_ranks(c);
  auto engine = make_engine(threaded, ranks, c.spec.machine);
  const sim::FaultPlan plan = c.spec.fault_plan();
  std::optional<sim::FaultInjector> injector;
  if (!plan.empty()) {
    injector.emplace(plan);
    engine->set_fault_injector(&*injector);
  }
  if (traced) {
    ep.sink = std::make_unique<HostTraceSink>(*engine);
    engine->set_trace_sink(ep.sink.get());
  }
  const auto config = c.spec.parallel_config();
  std::unique_ptr<ddm::ParallelMd> pmd;
  timed_span(log, "ParallelMd::ParallelMd", "ddm", [&] {
    pmd = std::make_unique<ddm::ParallelMd>(
        ddm::EngineConfig{.engine = engine.get(),
                          .box = c.spec.system.box(),
                          .initial = &initial},
        config);
  });
  ep.setup_s = seconds_since(setup_begin);

  const sim::RankCounters before = total_counters(*engine);
  const int phase_before = engine->current_phase();
  std::vector<StepWindow> windows;
  ep.step_ms.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    StepWindow w;
    w.first_phase = engine->current_phase() + 1;
    ddm::ParallelStepStats stats;
    w.begin_ns = now_ns();
    try {
      stats = pmd->step();
    } catch (const std::exception& e) {
      report.attempt(false, std::string(c.name) + " step " +
                                std::to_string(i + 1) + " threw: " + e.what());
      ep.ok = false;
      break;
    }
    w.end_ns = now_ns();
    w.end_phase = engine->current_phase() + 1;
    if (traced) log->add("ParallelMd::step", "ddm", w.begin_ns, w.end_ns);
    windows.push_back(w);
    ep.step_ms.push_back(1e-6 * static_cast<double>(w.end_ns - w.begin_ns));
    ep.t_step.push_back(stats.t_step);
    ep.potential.push_back(stats.potential_energy);
    ep.kinetic.push_back(stats.kinetic_energy);
    ep.pairs += static_cast<double>(stats.pair_evaluations);
    ep.transfers += stats.transfers;
    ep.cells_moved += stats.cells_moved;
    ep.imbalance += stats.imbalance;
    ep.retransmissions += static_cast<double>(stats.retransmissions);
    ep.checkpoint_bytes += static_cast<double>(stats.checkpoint_bytes);
    if (traced && i == steps / 2) {
      timed_span(log, "ParallelMd::gather_particles", "ddm",
                 [&] { ep.snapshot = pmd->gather_particles(); });
    }
  }
  report.succeeded(windows.size());
  const sim::RankCounters after = total_counters(*engine);
  ep.messages = static_cast<double>(after.messages_sent - before.messages_sent);
  ep.bytes = static_cast<double>(after.bytes_sent - before.bytes_sent);
  ep.phases = engine->current_phase() - phase_before;
  const double wait = after.comm_wait_seconds - before.comm_wait_seconds;
  const double busy = (after.compute_seconds - before.compute_seconds) + wait +
                      (after.collective_seconds - before.collective_seconds);
  ep.comm_wait_share = busy > 0 ? wait / busy : 0.0;
  ep.recovery = pmd->recovery_counters();

  if (traced) {
    const auto merged = ep.sink->merged_phases();
    for (const StepWindow& w : windows) {
      const auto split = attribute_step(merged, w.first_phase, w.end_phase,
                                        w.begin_ns, w.end_ns);
      for (std::size_t k = 0; k < split.ns.size(); ++k) {
        ep.phase_ns[k] += split.ns[k];
      }
    }
    sim::Buffer checkpoint;
    ep.checkpoint_ms = 1e-6 * static_cast<double>(timed_span(
        log, "ParallelMd::checkpoint", "ddm",
        [&] { checkpoint = pmd->checkpoint(); }));
    ep.checkpoint_mb = static_cast<double>(checkpoint.size()) / 1e6;
    auto resume_engine = make_engine(threaded, ranks, c.spec.machine);
    ep.resume_ms = 1e-6 * static_cast<double>(timed_span(
        log, "ParallelMd::ParallelMd(resume)", "ddm", [&] {
          ddm::ParallelMd resumed(
              ddm::EngineConfig{.engine = resume_engine.get(),
                                .checkpoint = &checkpoint},
              config);
          report.attempt(resumed.step_count() == pmd->step_count(),
                         std::string(c.name) + ": resumed step count");
        }));
  }

  // Output checks: conservation of particles and ids, ownership invariants,
  // and the scheduled failover count when self-healing is on.
  md::ParticleVector final_particles = pmd->gather_particles();
  if (fabricate_error && !final_particles.empty()) final_particles.pop_back();
  bool ids_ok = final_particles.size() == initial.size();
  if (ids_ok) {
    std::vector<std::int64_t> want;
    want.reserve(initial.size());
    for (const auto& p : initial) want.push_back(p.id);
    std::sort(want.begin(), want.end());
    for (std::size_t i = 0; i < want.size() && ids_ok; ++i) {
      ids_ok = final_particles[i].id == want[i];
    }
  }
  ep.ok &= report.attempt(
      ids_ok, std::string(c.name) + ": particle count and ids conserved (" +
                  std::to_string(final_particles.size()) + " of " +
                  std::to_string(initial.size()) + ")");
  const auto ownership = pmd->check_ownership();
  ep.ok &= report.attempt(
      ownership.ok,
      std::string(c.name) + ": check_ownership() clean" +
          (ownership.violations.empty() ? ""
                                        : ": " + ownership.violations.front()));
  if (c.spec.fault_tolerance.healing.enabled) {
    ep.ok &= report.attempt(
        ep.recovery.failovers == c.failovers &&
            ep.recovery.roles_retired == 0 && ep.recovery.declared_dead == 0,
        std::string(c.name) + ": exactly " + std::to_string(c.failovers) +
            " scheduled failover(s), got " +
            std::to_string(ep.recovery.failovers) + " (retired " +
            std::to_string(ep.recovery.roles_retired) + ")");
  }
  engine->set_trace_sink(nullptr);
  engine->set_fault_injector(nullptr);
  return ep;
}

// Bitwise agreement of two episodes' virtual time and energies over the
// first `steps` steps.
bool same_trajectory(const Episode& a, const Episode& b, std::size_t steps) {
  if (a.t_step.size() < steps || b.t_step.size() < steps) return false;
  for (std::size_t i = 0; i < steps; ++i) {
    if (a.t_step[i] != b.t_step[i] || a.potential[i] != b.potential[i] ||
        a.kinetic[i] != b.kinetic[i]) {
      return false;
    }
  }
  return true;
}

double per_step(double total, const Episode& ep) {
  return ep.t_step.empty() ? 0.0
                           : total / static_cast<double>(ep.t_step.size());
}

// The deterministic counts of an episode. They are information in the
// untraced run and per-layer metrics in the traced run; either way they
// must repeat exactly for a seed.
void emit_counts(const Episode& ep, bool as_metrics, Report& report) {
  const auto emit = [&](const char* name, double value, const char* unit) {
    if (as_metrics) {
      report.metric(name, value, unit);
    } else {
      report.info(name, value, unit);
    }
  };
  emit("md.pairs_per_step", per_step(ep.pairs, ep), "count");
  emit("sim.phases_per_step", per_step(ep.phases, ep), "count");
  emit("sim.msgs_per_step", per_step(ep.messages, ep), "count");
  emit("sim.bytes_per_step", per_step(ep.bytes, ep), "bytes");
  emit("sim.comm_wait_share", ep.comm_wait_share, "ratio");
  emit("ddm.retransmissions_per_step", per_step(ep.retransmissions, ep),
       "count");
  emit("ddm.checkpoint_bytes_per_step", per_step(ep.checkpoint_bytes, ep),
       "bytes");
  emit("ddm.rollbacks", static_cast<double>(ep.recovery.rollbacks), "count");
  emit("ddm.failovers", static_cast<double>(ep.recovery.failovers), "count");
  emit("core.transfers_per_step", per_step(ep.transfers, ep), "count");
  emit("core.cells_moved_per_step", per_step(ep.cells_moved, ep), "count");
  emit("core.imbalance_mean", per_step(ep.imbalance, ep), "ratio");
}

double vstep_ms(const Episode& ep) { return 1e3 * mean(ep.t_step); }

// Repeats `body` until at least `min_seconds` of host time have passed (and
// at least `min_reps` times); returns the median seconds per call.
double median_seconds(int min_reps, double min_seconds,
                      const std::function<void()>& body) {
  std::vector<double> samples;
  const std::int64_t start = now_ns();
  while (static_cast<int>(samples.size()) < min_reps ||
         seconds_since(start) < min_seconds) {
    const std::int64_t t = now_ns();
    body();
    samples.push_back(seconds_since(t));
  }
  return median(samples);
}

// Micro-measurements of the md, util and ddm wire layers on a gathered
// snapshot and the episode's recorded message sizes.
void emit_snapshot_layers(const MdCase& c, const Episode& ep, SpanLog& log,
                          Report& report) {
  const int k = c.spec.system.cells_per_axis();
  const Box box = c.spec.system.box();
  const md::CellGrid grid(box, k, k, k);
  const md::LennardJones lj(c.spec.system.cutoff);
  md::ParticleVector particles = ep.snapshot;

  md::CellBins bins;
  const double rebuild_s = median_seconds(20, 0.05, [&] {
    timed_span(&log, "CellBins::rebuild", "md",
               [&] { bins.rebuild(grid, particles); });
  });
  report.metric("md.bins_rebuild_us", rebuild_s * 1e6, "us");

  std::vector<int> targets(static_cast<std::size_t>(grid.num_cells()));
  for (int i = 0; i < grid.num_cells(); ++i) targets[static_cast<std::size_t>(i)] = i;
  md::ForceWorkspace workspace;
  md::ForceResult forces;
  const double force_s = median_seconds(3, 0.1, [&] {
    timed_span(&log, "md::accumulate_forces", "md", [&] {
      forces = md::accumulate_forces(particles, grid, bins, targets, lj,
                                     workspace);
    });
  });
  report.metric("md.force_ns_per_pair",
                forces.pair_evaluations == 0
                    ? 0.0
                    : force_s * 1e9 /
                          static_cast<double>(forces.pair_evaluations),
                "ns");

  // In-cutoff pairs over stencil candidates, counted independently of the
  // kernel; the candidate count must agree with the kernel's own.
  std::uint64_t candidates = 0, within = 0;
  const double cutoff2 = lj.cutoff2();
  for (int cell = 0; cell < grid.num_cells(); ++cell) {
    for (const std::int32_t i : bins.cell(cell)) {
      for (const int other : grid.stencil(cell)) {
        for (const std::int32_t j : bins.cell(other)) {
          if (i == j) continue;
          ++candidates;
          if (minimum_image_distance2(
                  particles[static_cast<std::size_t>(i)].position,
                  particles[static_cast<std::size_t>(j)].position,
                  box) < cutoff2) {
            ++within;
          }
        }
      }
    }
  }
  report.attempt(candidates == forces.pair_evaluations,
                 "md: stencil candidate count " + std::to_string(candidates) +
                     " equals the kernel's pair_evaluations " +
                     std::to_string(forces.pair_evaluations));
  report.metric("md.pair_hit_ratio",
                candidates == 0 ? 0.0
                                : static_cast<double>(within) /
                                      static_cast<double>(candidates),
                "ratio");

  // CRC32 throughput over the workload's own message-size mix.
  auto sizes = ep.sink->send_sizes();
  if (sizes.size() > 20000) {
    const std::size_t stride = sizes.size() / 20000;
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < sizes.size(); i += stride) sample.push_back(sizes[i]);
    sizes.swap(sample);
  }
  std::size_t largest = 1, total = 0;
  for (const std::size_t s : sizes) {
    largest = std::max(largest, s);
    total += s;
  }
  std::vector<std::uint8_t> bytes(largest);
  Rng fill(c.spec.system.seed);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(fill.uniform() * 256.0);
  std::uint32_t sink_crc = 0;
  const double crc_s = median_seconds(5, 0.05, [&] {
    timed_span(&log, "pcmd::crc32", "util", [&] {
      for (const std::size_t s : sizes) sink_crc ^= crc32(bytes.data(), s);
    });
  });
  report.metric("util.crc32_mbps",
                crc_s > 0 ? static_cast<double>(total) / 1e6 / crc_s : 0.0,
                "MB/s");
  const std::size_t half = bytes.size() / 2;
  report.attempt(crc32(bytes.data(), bytes.size()) ==
                     crc32(bytes.data() + half, bytes.size() - half,
                           crc32(bytes.data(), half)),
                 "util: incremental crc32 equals the one-shot crc32");
  [[maybe_unused]] volatile std::uint32_t keep = sink_crc;

  // Wire round trip of a median-size halo: pack_halo (pack + seal_payload)
  // then unpack_halo (open_payload + unpack).
  const auto halo_sizes = ep.sink->send_sizes(ddm::kTagHalo);
  const std::size_t median_bytes =
      halo_sizes.empty() ? 0
                         : static_cast<std::size_t>(median(
                               std::vector<double>(halo_sizes.begin(),
                                                   halo_sizes.end())));
  const std::size_t overhead = ddm::kWireHeaderBytes + sizeof(std::uint64_t);
  const std::size_t records_n = std::clamp<std::size_t>(
      median_bytes > overhead ? (median_bytes - overhead) /
                                    sizeof(ddm::HaloRecord)
                              : 1,
      1, particles.size());
  std::vector<ddm::HaloRecord> records(records_n);
  for (std::size_t i = 0; i < records_n; ++i) {
    records[i] = {particles[i].id, particles[i].position};
  }
  std::size_t unpacked = 0;
  const double wire_s = median_seconds(200, 0.05, [&] {
    timed_span(&log, "ddm::pack_halo+unpack_halo", "ddm", [&] {
      unpacked = ddm::unpack_halo(ddm::pack_halo(records)).size();
    });
  });
  report.attempt(unpacked == records_n, "ddm: halo wire round trip");
  report.metric("ddm.wire_us_per_msg", wire_s * 1e6, "us");
  report.info("ddm.wire_halo_records", static_cast<double>(records_n),
              "count");
}

double empty_phase_us(bool threaded, int ranks,
                      const sim::MachineModel& machine, SpanLog& log) {
  auto engine = make_engine(threaded, ranks, machine);
  const auto body = [](sim::Comm&) {};
  engine->run_phase(body);  // wake the workers once
  const int reps = threaded ? 200 : 2000;
  const double s = median_seconds(3, 0.02, [&] {
    timed_span(&log, "Engine::run_phase(empty)", "sim", [&] {
      for (int i = 0; i < reps; ++i) engine->run_phase(body);
    });
  });
  return s * 1e6 / reps;
}

// The serve layer's per-layer metrics read 0 on the MD workloads, whose
// path never enters it, so every traced run carries the full metric set.
void report_serve_layers_off_path(Report& report) {
  for (const char* name :
       {"serve.parse_us", "serve.submit_us_p50", "serve.submit_us_p90"}) {
    report.metric(name, 0.0, "us");
  }
  for (const char* name :
       {"serve.queue_wait_ms_p50", "serve.queue_wait_ms_p90",
        "serve.run_ms_p50"}) {
    report.metric(name, 0.0, "ms");
  }
  report.metric("serve.attempts_per_job", 0.0, "count");
  report.metric("serve.cache_hit_ratio", 0.0, "ratio");
  report.metric("serve.preemptions", 0.0, "count");
  report.metric("serve.journal_append_us", 0.0, "us");
  report.metric("serve.journal_bytes_per_job", 0.0, "bytes");
  report.metric("serve.compact_ms", 0.0, "ms");
  report.metric("serve.recover_ms", 0.0, "ms");
  report.note("serve.* read 0: this workload's path never enters the serve layer");
}

}  // namespace

void run_md_case(const MdCase& c, const Options& options, Report& report,
                 bool primary) {
  const int steps = c.steps;
  const std::int64_t start = now_ns();
  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  SpanLog log;
  // Untraced run: episodes until the time is spent. Traced run: alternate
  // untraced and traced episodes, so the overhead ratio compares like with
  // like under the same machine conditions.
  do {
    untraced.push_back(
        run_episode(c, c.threaded, steps, nullptr,
                    options.fabricate_error && untraced.empty(), report));
    if (options.trace) {
      traced.push_back(run_episode(c, c.threaded, steps, &log, false, report));
    }
  } while (seconds_since(start) < options.seconds && untraced.back().ok &&
           (traced.empty() || traced.back().ok));

  // Every episode replays the same seeded trajectory.
  const Episode& first = untraced.front();
  for (std::size_t i = 1; i < untraced.size(); ++i) {
    report.attempt(same_trajectory(first, untraced[i], steps),
                   std::string(c.name) + ": episode " + std::to_string(i) +
                       " repeats virtual time and energies bitwise");
  }
  for (const Episode& ep : traced) {
    report.attempt(same_trajectory(first, ep, steps),
                   std::string(c.name) +
                       ": traced episode repeats virtual time and energies");
  }

  // Host-time figures come from a *typical step profile*. Every episode of a
  // run replays one trajectory bitwise, so step i does the same work in each
  // of them; the typical time of step i is the lower quartile of its host
  // times over the run's timed episodes. Interference from other tenants
  // hits a given step in some episodes and not others, and is filtered out
  // as long as it hits fewer than three quarters of them; a change to the
  // program moves step i in every episode and shows in full. step_ms_p50
  // and step_ms_p90 are quantiles of the profile over the episode's step
  // indices (100, so a p90 has at least 10 steps beyond it), and
  // md_pps is particle-steps over the profile's sum. The first episode warms
  // caches and the allocator and is left out of the timings whenever a
  // later one exists (its set-up still counts: users pay a cold start).
  std::vector<double> step_ms, setup_s, gen_ms, steps_per_s;
  std::vector<const Episode*> timed;
  for (const Episode& ep : untraced) {
    setup_s.push_back(ep.setup_s);
    gen_ms.push_back(ep.gen_ms);
    if (&ep == &untraced.front() && untraced.size() > 1) continue;
    if (ep.step_ms.size() != static_cast<std::size_t>(steps)) continue;
    timed.push_back(&ep);
    step_ms.insert(step_ms.end(), ep.step_ms.begin(), ep.step_ms.end());
    double seconds = 0.0;
    for (const double ms : ep.step_ms) seconds += ms * 1e-3;
    steps_per_s.push_back(static_cast<double>(steps) / seconds);
  }
  std::vector<double> profile_ms;
  double profile_s = 0.0;
  if (!timed.empty()) {
    for (int i = 0; i < steps; ++i) {
      std::vector<double> across;
      for (const Episode* ep : timed) across.push_back(ep->step_ms[i]);
      profile_ms.push_back(quantile(across, 0.25));
      profile_s += profile_ms.back() * 1e-3;
    }
  }
  const double profile_steps_per_s =
      profile_s > 0 ? static_cast<double>(steps) / profile_s : 0.0;
  const double particles = static_cast<double>(first.particles);
  if (primary) {
    report.info("particles", static_cast<double>(first.particles), "count");
    report.info("episodes", static_cast<double>(untraced.size()), "count");
    report.info("steps_per_episode", steps, "count");
    report.info("timed_episodes", static_cast<double>(timed.size()), "count");
    report.info("step_samples", static_cast<double>(step_ms.size()), "count");
    report.info("episode_md_pps_min", particles * quantile(steps_per_s, 0.0),
                "1/s");
    report.info("episode_md_pps_max", particles * quantile(steps_per_s, 1.0),
                "1/s");
    report.info("vstep_ms", vstep_ms(first), "ms");
    report.info("final_potential_energy",
                first.potential.empty() ? 0.0 : first.potential.back(), "eps");
    report.info("final_kinetic_energy",
                first.kinetic.empty() ? 0.0 : first.kinetic.back(), "eps");
  }

  if (!options.trace) {
    if (!primary) return;
    const double p50 = quantile(profile_ms, 0.5);
    const double p90 = quantile(profile_ms, 0.9);
    report.metric("md_pps", particles * profile_steps_per_s, "1/s");
    report.metric("step_ms_p50", p50, "ms");
    report.metric("step_ms_p90", p90, "ms");
    report.metric("vstep_ms", vstep_ms(first), "ms");
    // On the MD workloads the unit of work a caller waits for is one
    // step(), so the job metrics are the step metrics.
    report.metric("jobs_per_s", profile_steps_per_s, "1/s");
    report.metric("job_ms_p50", p50, "ms");
    report.metric("job_ms_p90", p90, "ms");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    emit_counts(first, false, report);
    return;
  }

  // ---- traced run: per-layer metrics ----
  const Episode& last = traced.back();
  if (!last.ok) return;  // already counted as failed; nothing to probe
  emit_counts(last, true, report);
  report.metric("workload.gen_ms", median(gen_ms), "ms");

  std::vector<double> traced_ms;
  std::array<double, 7> phase_ns{};
  double traced_steps = 0;
  for (const Episode& ep : traced) {
    traced_ms.insert(traced_ms.end(), ep.step_ms.begin(), ep.step_ms.end());
    for (std::size_t k = 0; k < phase_ns.size(); ++k) phase_ns[k] += ep.phase_ns[k];
    traced_steps += static_cast<double>(ep.step_ms.size());
  }
  double phase_sum_ms = 0.0;
  for (std::size_t k = 0; k < phase_ns.size(); ++k) {
    const double ms = traced_steps > 0 ? phase_ns[k] * 1e-6 / traced_steps : 0;
    phase_sum_ms += ms;
    report.metric(std::string("ddm.phase_ms.") + StepPhaseTimes::kNames[k], ms,
                  "ms");
  }
  const double overhead = median(traced_ms) / median(step_ms);
  if (primary) report.metric("trace.overhead_ratio", overhead, "ratio");
  const double traced_mean_ms = mean(traced_ms);
  report.info("ddm.phase_ms.sum", phase_sum_ms, "ms");
  report.info("traced_step_ms_mean", traced_mean_ms, "ms");
  report.attempt(std::abs(phase_sum_ms - traced_mean_ms) <=
                     traced_mean_ms * std::max(0.0, overhead - 1.0) + 1e-6,
                 "ddm.phase_ms.* sum to the step() span within the overhead");

  report.metric("ddm.checkpoint_ms", last.checkpoint_ms, "ms");
  report.metric("ddm.checkpoint_mb", last.checkpoint_mb, "MB");
  report.metric("ddm.resume_ms", last.resume_ms, "ms");
  emit_snapshot_layers(c, last, log, report);
  report.metric("sim.phase_us",
                empty_phase_us(c.threaded, engine_ranks(c), c.spec.machine, log),
                "us");

  // The same config and seed on the other engine: bitwise parity of virtual
  // time and energies, and the threaded engine's host speed-up over the
  // single-threaded baseline.
  const Episode other = run_episode(c, !c.threaded, steps, nullptr, false, report);
  report.attempt(same_trajectory(first, other, steps),
                 std::string(c.name) +
                     ": SeqEngine and ThreadEngine agree bitwise on virtual "
                     "time and energies");
  const double own = mean(first.step_ms);
  const double alt = mean(other.step_ms);
  const double seq_ms = c.threaded ? alt : own;
  const double thread_ms = c.threaded ? own : alt;
  report.metric("sim.thread_speedup", thread_ms > 0 ? seq_ms / thread_ms : 0.0,
                "x");

  if (primary) {
    report_serve_layers_off_path(report);
    log.write_chrome_trace(options.out_dir + "/trace-" + options.workload +
                               "-seed" + std::to_string(options.seed) + ".json",
                           last.sink.get());
  }
}

MdCase fig5_seq_case(std::uint64_t seed, bool tiny) {
  MdCase c;
  c.name = "fig5-seq";
  c.spec.system.pe_count = 9;
  c.spec.system.m = 4;
  c.spec.system.density = 0.384;
  c.spec.system.seed = seed;
  c.spec.dlb_enabled = true;
  // SeqEngine, not ThreadEngine(9): nine engine threads keep all four
  // vCPUs of the reference host busy, which draws hypervisor steal, and
  // steal on any vCPU stalls every thread at the next phase barrier. The
  // threaded engine is still run on this system in the traced run
  // (sim.thread_speedup and the Seq/Thread parity check).
  c.threaded = false;
  c.steps = tiny ? 6 : 100;
  return c;
}

MdCase paper36_heal_case(std::uint64_t seed, bool tiny) {
  MdCase c;
  c.name = "paper36-heal";
  c.spec.system.pe_count = 36;
  c.spec.system.m = 2;
  c.spec.system.density = 0.256;
  c.spec.system.seed = seed;
  c.spec.dlb_enabled = true;
  c.threaded = false;
  c.steps = tiny ? 12 : 100;
  // Transient drops and corruption on the reliable channel, plus one crash
  // of a fixed rank after the first buddy generations exist. The fault
  // schedule is part of the workload, fixed for every seed (the seed picks
  // the particles), so the recovery work does not vary with the seed.
  c.spec.faults = sim::FaultPlan::parse(
      std::string("seed=7,drop=0.02,corrupt=0.01,crash=13@") +
      (tiny ? "0.28" : "1.0"));
  c.spec.fault_tolerance.reliable = true;
  c.spec.fault_tolerance.healing.enabled = true;
  c.spec.fault_tolerance.healing.buddy_every = 5;
  c.spec.fault_tolerance.healing.spares = 1;
  c.failovers = 1;
  return c;
}

void run_fig5_seq(const Options& options, Report& report) {
  run_md_case(fig5_seq_case(options.seed, options.tiny), options, report,
              true);
}

void run_paper36_heal(const Options& options, Report& report) {
  run_md_case(paper36_heal_case(options.seed, options.tiny), options, report,
              true);
}

}  // namespace pcmdbench
