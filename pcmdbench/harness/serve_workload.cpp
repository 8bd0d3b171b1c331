// serve-mixed: a closed loop of clients against a durable serve::Scheduler.
//
// One harness thread keeps each of 8 logical clients' next job
// outstanding against a Scheduler with kWorkers workers, a file-backed
// kOnCompact ResultStore and a JobJournal. A client submits its next job
// only once the previous one has its terminal record, as service callers
// that wait for their reply do.
//
// Inputs, all from the seed: every client's job list (mostly small clean
// jobs at mixed priorities, one transient-fault job, one poison job, one
// malformed spec and one resubmission of an earlier key of its own) and a
// journal prefix — a few jobs submitted to a one-worker scheduler and then
// stopped with stop(kCheckpoint), so the long job that was running leaves a
// checkpoint behind. Each *session* copies that journal into a fresh
// directory, opens store and journal, constructs the scheduler and runs
// recover() (the timed set-up), runs the closed loop, then drain() and
// stop(kDrain). Sessions repeat until the host seconds are spent; every
// session of a run sees the same inputs, so its counters_line() and the
// compacted store and journal bytes must be identical across sessions.

#include "host_trace.hpp"
#include "md_layers.hpp"
#include "workloads.hpp"

#include "serve/journal.hpp"
#include "serve/scheduler.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

namespace pcmdbench {

using namespace pcmd;

namespace {

constexpr int kWorkers = 3;  // plus the harness thread: one per core on 4
constexpr int kMaxAttempts = 3;
// A closed loop with no completion for this long has lost a job.
constexpr int kStallSeconds = 60;

enum class Expect { kClean, kTransient, kPoison, kMalformed, kResubmit };

const char* expect_name(Expect e) {
  switch (e) {
    case Expect::kClean: return "clean";
    case Expect::kTransient: return "transient";
    case Expect::kPoison: return "poison";
    case Expect::kMalformed: return "malformed";
    case Expect::kResubmit: return "resubmit";
  }
  return "?";
}

struct Submission {
  std::string text;
  Expect expect = Expect::kClean;
  int steps = 0;
};

struct Inputs {
  std::vector<std::vector<Submission>> clients;
  std::vector<std::string> prefix;  // journal-prefix job texts
  std::string prefix_journal;       // bytes left by stop(kCheckpoint)
};

const std::string kBase = "--pe 9 --m 2 --density 0.2 ";

std::string clean_text(int steps, std::uint64_t seed, const char* priority,
                       bool json) {
  if (json) {
    return "{\"pe\": 9, \"m\": 2, \"density\": 0.2, \"steps\": " +
           std::to_string(steps) + ", \"seed\": " + std::to_string(seed) +
           ", \"priority\": \"" + priority + "\"}";
  }
  return kBase + "--steps " + std::to_string(steps) + " --seed " +
         std::to_string(seed) + " --priority " + priority;
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform_index(i)]);
  }
}

std::vector<std::vector<Submission>> make_clients(std::uint64_t seed,
                                                  bool tiny) {
  // The traffic shape — each client's job order, priorities and which
  // earlier job it resubmits — comes from a fixed generator, so every seed
  // loads the service the same way; the seed picks every job's particles
  // and the grammar each clean spec is written in.
  Rng shape(0x5e7e5e7eULL);
  Rng rng(seed);
  const int clients = tiny ? 4 : 8;
  const std::vector<int> clean_steps =
      tiny ? std::vector<int>{8, 12} : std::vector<int>{8, 8, 10, 10, 12, 12, 16, 16};
  const std::uint64_t base = 1 + (seed % 1000000) * 1000;
  std::vector<std::vector<Submission>> out;
  for (int c = 0; c < clients; ++c) {
    std::vector<Submission> jobs;
    std::uint64_t job_seed = base + static_cast<std::uint64_t>(c) * 64;
    std::vector<const char*> priorities = {"low", "low", "normal", "normal",
                                           "high", "low", "normal", "high"};
    shuffle(priorities, shape);
    for (std::size_t i = 0; i < clean_steps.size(); ++i) {
      jobs.push_back({clean_text(clean_steps[i], job_seed++, priorities[i],
                                 rng.uniform() < 0.25),
                      Expect::kClean, clean_steps[i]});
    }
    // The fault-plan seed is fixed per client, so how often the transient
    // job retries (and the work that costs) does not vary with the seed.
    jobs.push_back({kBase + "--steps 8 --seed " + std::to_string(job_seed++) +
                        " --faults seed=" + std::to_string(101 + c) +
                        ",drop=0.45,corrupt=0.02 --priority normal",
                    Expect::kTransient, 8});
    jobs.push_back({kBase + "--steps 10 --seed " + std::to_string(job_seed++) +
                        " --faults seed=1,crash=4@0 --buddy-every 3 "
                        "--spares 1 --priority low",
                    Expect::kPoison, 10});
    jobs.push_back({(c % 2 == 0)
                        ? "--seed " + std::to_string(job_seed++) +
                              " --steps banana"
                        : "{\"seed\": " + std::to_string(job_seed++) +
                              ", \"no-such-flag\": true}",
                    Expect::kMalformed, 0});
    shuffle(jobs, shape);
    // The resubmission repeats an earlier well-formed job of this client,
    // so it is answered from the store (a read beside the writes).
    std::vector<std::size_t> earlier;
    for (std::size_t i = 0; i < jobs.size() / 2 + 1; ++i) {
      if (jobs[i].expect != Expect::kMalformed) earlier.push_back(i);
    }
    const std::size_t pick = earlier[shape.uniform_index(earlier.size())];
    const std::size_t at =
        pick + 1 + shape.uniform_index(jobs.size() - pick);
    Submission again = jobs[pick];
    again.expect = Expect::kResubmit;
    jobs.insert(jobs.begin() + static_cast<std::ptrdiff_t>(at), again);
    out.push_back(std::move(jobs));
  }
  return out;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spill(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// The journal a one-worker scheduler leaves after stop(kCheckpoint): the
// long low-priority job is running when the stop arrives and checkpoints;
// the jobs queued behind it stay pending.
std::string make_prefix_journal(const std::vector<std::string>& prefix,
                                const std::filesystem::path& dir,
                                Report& report) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::ResultStore store((dir / "store.jsonl").string(),
                           serve::FlushMode::kOnCompact);
  serve::JobJournal journal((dir / "journal.bin").string());
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  serve::SchedulerConfig config;
  config.workers = 1;
  config.max_attempts = kMaxAttempts;
  config.before_attempt_hook = [&](const serve::JobSpec&) {
    const std::lock_guard<std::mutex> lock(mutex);
    started = true;
    cv.notify_all();
  };
  serve::Scheduler scheduler(config, store, nullptr, &journal);
  scheduler.submit(prefix.front());
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started; });
  }
  for (std::size_t i = 1; i < prefix.size(); ++i) scheduler.submit(prefix[i]);
  scheduler.stop(serve::StopMode::kCheckpoint);
  const std::string bytes = slurp(dir / "journal.bin");
  const auto events = serve::decode_journal(
      sim::Buffer(bytes.begin(), bytes.end()), nullptr);
  std::size_t pending = 0;
  for (const auto& e : events) {
    if (e.kind == serve::JournalEventKind::kPending) ++pending;
  }
  report.attempt(pending == prefix.size() && store.size() == 0,
                 "serve: journal prefix holds all " +
                     std::to_string(prefix.size()) + " jobs pending (got " +
                     std::to_string(pending) + ", store " +
                     std::to_string(store.size()) + ")");
  return bytes;
}

struct SessionResult {
  double setup_s = 0.0;
  double recover_ms = 0.0;
  double loop_s = 0.0;      // first submit to the end of stop(kDrain)
  double compact_ms = 0.0;  // stop(kDrain) after the drain
  std::size_t completed = 0;
  std::vector<double> job_ms;
  std::vector<double> job_step_ms;  // attempt ms / steps, unpreempted clean jobs
  std::vector<double> submit_us;
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  double particle_steps = 0.0;
  double virtual_seconds = 0.0;
  double steps = 0.0;
  double attempts = 0.0;
  double ran_jobs = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t submissions = 0;
  std::uint64_t preemptions = 0;
  std::string counters;
  std::string store_bytes;
  std::string journal_bytes;
  std::vector<serve::JournalEvent> session_events;  // traced only
  double journal_bytes_per_job = 0.0;
};

// One session; `log` non-null makes it a traced session.
SessionResult run_session(const Inputs& in, const std::filesystem::path& dir,
                          std::size_t particles_per_job, bool fabricate_error,
                          SpanLog* log, Report& report) {
  SessionResult out;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto journal_path = dir / "journal.bin";
  const auto store_path = dir / "store.jsonl";
  spill(journal_path, in.prefix_journal);

  // Attempt-start stamps per key, from the scheduler's before-attempt hook:
  // one lock and one map entry per attempt.
  struct Starts {
    std::int64_t first_ns = 0;
    int count = 0;
  };
  std::mutex start_mutex;
  std::map<std::string, Starts> starts;
  serve::SchedulerConfig config;
  config.workers = kWorkers;
  config.max_attempts = kMaxAttempts;
  config.before_attempt_hook = [&](const serve::JobSpec& job) {
    const std::int64_t t = now_ns();
    const auto key = serve::ResultStore::key_of(job);
    const std::lock_guard<std::mutex> lock(start_mutex);
    Starts& entry = starts[key];
    if (entry.count++ == 0) entry.first_ns = t;
  };

  const std::int64_t setup_begin = now_ns();
  serve::ResultStore store(store_path.string(), serve::FlushMode::kOnCompact);
  serve::JobJournal journal(journal_path.string());
  obs::CounterBoard counters;
  serve::Scheduler scheduler(config, store, &counters, &journal);
  std::size_t recovered = 0;
  out.recover_ms = 1e-6 * static_cast<double>(timed_span(
      log, "Scheduler::recover", "serve",
      [&] { recovered = scheduler.recover(); }));
  out.setup_s = seconds_since(setup_begin);
  report.attempt(recovered == in.prefix.size(),
                 "serve: recover() re-enqueues the " +
                     std::to_string(in.prefix.size()) + " prefix jobs (got " +
                     std::to_string(recovered) + ")");

  struct Outstanding {
    std::size_t next = 0;
    bool waiting = false;
    std::string key;
    std::int64_t submitted_ns = 0;
  };
  std::vector<Outstanding> state(in.clients.size());
  std::vector<std::vector<std::string>> keys(in.clients.size());
  std::vector<std::vector<serve::Admission>> admissions(in.clients.size());
  const std::int64_t loop_begin = now_ns();
  std::int64_t last_progress = loop_begin;
  std::size_t remaining = 0;
  for (const auto& jobs : in.clients) remaining += jobs.size();
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t c = 0; c < in.clients.size(); ++c) {
      Outstanding& s = state[c];
      if (s.waiting) {
        if (!store.find(s.key)) continue;
        const std::int64_t done = now_ns();
        const Submission& job = in.clients[c][s.next - 1];
        const double ms = 1e-6 * static_cast<double>(done - s.submitted_ns);
        out.job_ms.push_back(ms);
        if (admissions[c].back() == serve::Admission::kAccepted) {
          const std::lock_guard<std::mutex> lock(start_mutex);
          if (const auto it = starts.find(s.key); it != starts.end()) {
            const double run =
                1e-6 * static_cast<double>(done - it->second.first_ns);
            out.queue_wait_ms.push_back(
                1e-6 *
                static_cast<double>(it->second.first_ns - s.submitted_ns));
            out.run_ms.push_back(run);
            // A clean job that ran in one attempt, never preempted: its
            // attempt time per step, engine set-up included.
            if (job.expect == Expect::kClean && it->second.count == 1) {
              out.job_step_ms.push_back(run / job.steps);
            }
          }
        }
        s.waiting = false;
        --remaining;
        progressed = true;
      }
      if (s.next >= in.clients[c].size()) continue;
      const Submission& job = in.clients[c][s.next++];
      const std::int64_t t0 = now_ns();
      const serve::SubmitResult result = scheduler.submit(job.text);
      const std::int64_t t1 = now_ns();
      if (log != nullptr) log->add("Scheduler::submit", "serve", t0, t1);
      out.submit_us.push_back(1e-3 * static_cast<double>(t1 - t0));
      ++out.submissions;
      keys[c].push_back(result.key);
      admissions[c].push_back(result.admission);
      s.key = result.key;
      s.submitted_ns = t0;
      // A shed or tripped submission gets no record: nothing to wait for
      // (the class check below counts it as a failure).
      s.waiting = result.admission != serve::Admission::kRejectedOverloaded &&
                  result.admission != serve::Admission::kRejectedTripped;
      if (!s.waiting) --remaining;
      progressed = true;
    }
    if (progressed) {
      last_progress = now_ns();
    } else if (seconds_since(last_progress) > kStallSeconds) {
      report.attempt(false, "serve: no job completed for " +
                                std::to_string(kStallSeconds) + " s");
      break;
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  timed_span(log, "Scheduler::drain", "serve", [&] { scheduler.drain(); });
  out.preemptions = scheduler.stats().preemptions;
  if (log != nullptr) {
    const std::string bytes = slurp(journal_path);
    out.journal_bytes_per_job =
        static_cast<double>(bytes.size() - in.prefix_journal.size()) /
        static_cast<double>(out.submissions + recovered);
    out.session_events = serve::decode_journal(
        sim::Buffer(bytes.begin() + static_cast<std::ptrdiff_t>(
                                        in.prefix_journal.size()),
                    bytes.end()),
        nullptr);
  }
  out.compact_ms = 1e-6 * static_cast<double>(timed_span(
      log, "Scheduler::stop(kDrain)", "serve",
      [&] { scheduler.stop(serve::StopMode::kDrain); }));
  out.loop_s = seconds_since(loop_begin);
  out.completed = out.submissions + recovered;
  out.counters = scheduler.counters_line();
  out.cache_hits = counters.value("cache_hits");
  out.store_bytes = slurp(store_path);
  out.journal_bytes = slurp(journal_path);

  // Every submission must reach the terminal class the generator labelled.
  const auto records = store.records();
  for (std::size_t c = 0; c < in.clients.size(); ++c) {
    for (std::size_t i = 0; i < in.clients[c].size(); ++i) {
      const Submission& job = in.clients[c][i];
      if (i >= keys[c].size()) {
        report.attempt(false, "serve: job never submitted: " + job.text);
        continue;
      }
      const auto it = records.find(keys[c][i]);
      const serve::Admission admission = admissions[c][i];
      bool ok = it != records.end();
      if (ok) {
        const auto& r = it->second;
        switch (job.expect) {
          case Expect::kClean:
            ok = admission == serve::Admission::kAccepted &&
                 r.outcome == serve::JobOutcome::kSucceeded && r.attempts == 1 &&
                 r.steps == job.steps;
            break;
          case Expect::kTransient:
            ok = admission == serve::Admission::kAccepted &&
                 (r.outcome == serve::JobOutcome::kSucceeded ||
                  (r.outcome == serve::JobOutcome::kQuarantined &&
                   r.attempts == kMaxAttempts &&
                   (r.failure == "peer-dead" || r.failure == "checksum")));
            break;
          case Expect::kPoison:
            ok = admission == serve::Admission::kAccepted &&
                 r.outcome == serve::JobOutcome::kQuarantined &&
                 r.failure == "unsurvivable" && r.attempts == kMaxAttempts;
            break;
          case Expect::kMalformed:
            ok = admission == serve::Admission::kMalformed &&
                 r.outcome == serve::JobOutcome::kQuarantined &&
                 r.failure == "malformed-spec" && r.attempts == 0;
            break;
          case Expect::kResubmit:
            ok = admission == serve::Admission::kCacheHit;
            break;
        }
      }
      if (fabricate_error && c == 0 && i == 0) ok = false;
      report.attempt(ok, std::string("serve: ") + expect_name(job.expect) +
                             " job reached its expected terminal class (" +
                             serve::admission_name(admission) + "): " +
                             job.text);
    }
  }
  for (const auto& text : in.prefix) {
    const auto key = serve::ResultStore::key_of(serve::JobSpec::parse(text));
    const auto it = records.find(key);
    report.attempt(it != records.end() &&
                       it->second.outcome == serve::JobOutcome::kSucceeded,
                   "serve: recovered prefix job completed: " + text);
  }
  report.attempt(counters.value("shed") == 0 && counters.value("tripped") == 0,
                 "serve: nothing shed or tripped");

  for (const auto& [key, r] : records) {
    if (r.outcome == serve::JobOutcome::kSucceeded) {
      out.particle_steps +=
          static_cast<double>(particles_per_job) * static_cast<double>(r.steps);
      out.virtual_seconds += r.virtual_seconds;
      out.steps += static_cast<double>(r.steps);
    }
    if (r.attempts > 0) {
      out.attempts += r.attempts;
      out.ran_jobs += 1;
    }
  }
  return out;
}

}  // namespace

void run_serve_mixed(const Options& options, Report& report) {
  const std::filesystem::path work =
      std::filesystem::path(options.out_dir) /
      ("serve-work-seed" + std::to_string(options.seed));
  Inputs in;
  in.clients = make_clients(options.seed, options.tiny);
  const std::uint64_t prefix_seed = 1 + (options.seed % 1000000) * 1000 + 900;
  in.prefix.push_back(kBase + "--steps " + (options.tiny ? "20" : "60") +
                      " --seed " + std::to_string(prefix_seed) +
                      " --priority low");
  for (int i = 1; i <= 3; ++i) {
    in.prefix.push_back(clean_text(10, prefix_seed + i, "normal", false));
  }
  in.prefix_journal = make_prefix_journal(in.prefix, work / "prefix", report);
  const std::size_t particles_per_job = static_cast<std::size_t>(
      serve::JobSpec::parse(in.prefix.front()).run.system.particle_count());

  SpanLog log;
  std::vector<SessionResult> untraced, traced;
  const std::int64_t start = now_ns();
  do {
    untraced.push_back(run_session(in, work / "session", particles_per_job,
                                   options.fabricate_error && untraced.empty(),
                                   nullptr, report));
    if (options.trace) {
      traced.push_back(run_session(in, work / "session", particles_per_job,
                                   false, &log, report));
    }
  } while (seconds_since(start) < options.seconds);

  // Determinism: the same inputs give the same counters and the same
  // compacted durable state in every session.
  const SessionResult& first = untraced.front();
  const auto same_as_first = [&](const SessionResult& s, const char* what) {
    report.attempt(s.counters == first.counters,
                   std::string("serve: counters_line() repeats (") + what +
                       "): " + s.counters + " vs " + first.counters);
    report.attempt(s.store_bytes == first.store_bytes,
                   std::string("serve: compacted store bytes repeat (") +
                       what + ")");
    report.attempt(s.journal_bytes == first.journal_bytes,
                   std::string("serve: compacted journal bytes repeat (") +
                       what + ")");
  };
  for (std::size_t i = 1; i < untraced.size(); ++i) {
    same_as_first(untraced[i], "untraced");
  }
  for (const auto& s : traced) same_as_first(s, "traced");
  std::filesystem::remove_all(work);

  // Rates and latency percentiles are taken per session (96 jobs, so a p90
  // has 10 samples beyond it) and reported from the run's best quarter of
  // sessions: the lower quartile of the per-session latencies and the upper
  // quartile of the per-session rates. Every session serves the same inputs,
  // so the sessions differ only by interference from other tenants, which
  // is filtered out as long as it disturbs fewer than three quarters of
  // them; a change to the program moves every session. Per-step times are
  // the exception: a session has only about 50 of them, too few for a p90
  // with 10 samples beyond it, so they pool over the run. The first session
  // is a warm-up, left out of the timings whenever a later one exists (its
  // set-up still counts).
  std::vector<double> job_ms, job_step_ms, setup_s, jobs_per_s, md_pps,
      job_p50, job_p90;
  for (const auto& s : untraced) {
    setup_s.push_back(s.setup_s);
    if (&s == &untraced.front() && untraced.size() > 1) continue;
    job_ms.insert(job_ms.end(), s.job_ms.begin(), s.job_ms.end());
    job_p50.push_back(quantile(s.job_ms, 0.5));
    job_p90.push_back(quantile(s.job_ms, 0.9));
    job_step_ms.insert(job_step_ms.end(), s.job_step_ms.begin(),
                       s.job_step_ms.end());
    if (s.loop_s > 0) {
      jobs_per_s.push_back(static_cast<double>(s.completed) / s.loop_s);
      md_pps.push_back(s.particle_steps / s.loop_s);
    }
  }
  const double vstep =
      first.steps > 0 ? 1e3 * first.virtual_seconds / first.steps : 0.0;
  report.info("sessions", static_cast<double>(untraced.size()), "count");
  report.info("jobs_per_session", static_cast<double>(first.completed), "count");
  report.info("job_samples", static_cast<double>(job_ms.size()), "count");
  report.info("step_samples", static_cast<double>(job_step_ms.size()), "count");
  report.info("session_jobs_per_s_min", quantile(jobs_per_s, 0.0), "1/s");
  report.info("session_jobs_per_s_max", quantile(jobs_per_s, 1.0), "1/s");
  report.info("vstep_ms", vstep, "ms");
  report.note(first.counters);
  // Digests of the compacted durable state, so two runs can be compared.
  report.info("serve.store_crc32",
              crc32(first.store_bytes.data(), first.store_bytes.size()),
              "crc");
  report.info("serve.journal_crc32",
              crc32(first.journal_bytes.data(), first.journal_bytes.size()),
              "crc");

  if (!options.trace) {
    report.metric("md_pps", quantile(md_pps, 0.75), "1/s");
    // Host time per simulated step inside clean jobs' single attempts.
    report.metric("step_ms_p50", quantile(job_step_ms, 0.5), "ms");
    report.metric("step_ms_p90", quantile(job_step_ms, 0.9), "ms");
    report.metric("vstep_ms", vstep, "ms");
    report.metric("jobs_per_s", quantile(jobs_per_s, 0.75), "1/s");
    report.metric("job_ms_p50", quantile(job_p50, 0.25), "ms");
    report.metric("job_ms_p90", quantile(job_p90, 0.25), "ms");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run: the md-and-below layers on one representative clean
  // job (the runner builds its engine privately, so they are probed on the
  // same configuration from outside), then the serve layer itself.
  {
    MdCase probe;
    probe.name = "serve-job";
    probe.spec = serve::JobSpec::parse(in.prefix[1]).run;
    probe.threaded = false;
    probe.steps = 10;
    Options probe_options = options;
    probe_options.seconds = 0.0;
    probe_options.fabricate_error = false;
    run_md_case(probe, probe_options, report, false);
  }

  std::vector<double> traced_job_ms, submit_us, queue_wait_ms, run_ms,
      compact_ms, recover_ms, bytes_per_job;
  double attempts = 0, ran = 0, cache_hits = 0, submissions = 0,
         preemptions = 0;
  std::vector<serve::JournalEvent> events;
  for (const auto& s : traced) {
    traced_job_ms.insert(traced_job_ms.end(), s.job_ms.begin(), s.job_ms.end());
    submit_us.insert(submit_us.end(), s.submit_us.begin(), s.submit_us.end());
    queue_wait_ms.insert(queue_wait_ms.end(), s.queue_wait_ms.begin(),
                         s.queue_wait_ms.end());
    run_ms.insert(run_ms.end(), s.run_ms.begin(), s.run_ms.end());
    compact_ms.push_back(s.compact_ms);
    recover_ms.push_back(s.recover_ms);
    bytes_per_job.push_back(s.journal_bytes_per_job);
    attempts += s.attempts;
    ran += s.ran_jobs;
    cache_hits += static_cast<double>(s.cache_hits);
    submissions += static_cast<double>(s.submissions);
    preemptions += static_cast<double>(s.preemptions);
    if (events.empty()) events = s.session_events;
  }

  // Parse cost over every spec text of the mix that parses.
  std::vector<std::string> texts;
  for (const auto& jobs : in.clients) {
    for (const auto& job : jobs) {
      if (job.expect != Expect::kMalformed) texts.push_back(job.text);
    }
  }
  std::vector<double> parse_us;
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& text : texts) {
      parse_us.push_back(1e-3 * static_cast<double>(timed_span(
          rep == 0 ? &log : nullptr, "JobSpec::parse", "run",
          [&] { (void)serve::JobSpec::parse(text); })));
    }
  }

  // Append cost over the session's own journal event mix, on a scratch
  // journal.
  std::vector<double> append_us;
  {
    const auto path = work / "append.bin";
    std::filesystem::create_directories(work);
    serve::JobJournal scratch(path.string());
    for (const auto& event : events) {
      append_us.push_back(1e-3 * static_cast<double>(timed_span(
          &log, "JobJournal::append", "serve",
          [&] { scratch.append(event); })));
    }
  }
  std::filesystem::remove_all(work);

  report.metric("serve.parse_us", median(parse_us), "us");
  report.metric("serve.submit_us_p50", quantile(submit_us, 0.5), "us");
  report.metric("serve.submit_us_p90", quantile(submit_us, 0.9), "us");
  report.metric("serve.queue_wait_ms_p50", quantile(queue_wait_ms, 0.5), "ms");
  report.metric("serve.queue_wait_ms_p90", quantile(queue_wait_ms, 0.9), "ms");
  report.metric("serve.run_ms_p50", quantile(run_ms, 0.5), "ms");
  report.metric("serve.attempts_per_job", ran > 0 ? attempts / ran : 0.0, "count");
  report.metric("serve.cache_hit_ratio",
                submissions > 0 ? cache_hits / submissions : 0.0, "ratio");
  report.metric("serve.preemptions", preemptions, "count");
  report.metric("serve.journal_append_us", median(append_us), "us");
  report.metric("serve.journal_bytes_per_job", median(bytes_per_job), "bytes");
  report.metric("serve.compact_ms", median(compact_ms), "ms");
  report.metric("serve.recover_ms", median(recover_ms), "ms");
  report.metric("trace.overhead_ratio", median(traced_job_ms) / median(job_ms),
                "ratio");
  log.write_chrome_trace(options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json",
                         nullptr);
}

}  // namespace pcmdbench
