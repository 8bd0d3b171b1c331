// Write-ahead job journal: the serve layer's durability backbone.
//
// The scheduler's lanes and in-flight set live in memory; the ResultStore
// (in compact-on-demand mode) buffers terminal records in memory too. The
// JobJournal is what survives a host-process crash: an append-only,
// CRC-framed log of job lifecycle events —
//
//   submitted    every submission, with its admission disposition
//   started      a worker picked the job up (carries the attempt number)
//   checkpoint   a preemptible job yielded; full resume state archived
//   terminal     the job's final JobResultRecord, as its store line
//   snapshot     compaction marker: the submission tallies to date
//   pending      compaction marker: one still-queued entry (attempt,
//                lane, spec, inline resume state) whose tallies are
//                already inside the preceding snapshot
//
// — appended and flushed BEFORE the corresponding in-memory state changes,
// so at any crash point the journal is at or ahead of everything else.
// Scheduler::recover() replays it at startup: terminal events re-seed the
// store, pending submissions re-enqueue in their original lanes (resuming
// from their last journaled checkpoint when one exists), and the tallies
// that make counters_line() crash-invariant are restored.
//
// Framing: every record is two util/frame.hpp frames —
//
//   length frame  magic "PJLN" | length u32 | crc u32          (12 bytes)
//   record frame  magic "PJRC" | version u32 | kind u32 | crc u32 | payload
//
// where `length` is the record frame's size and the payload is the
// JournalEvent packed with sim::Packer. The length frame's CRC matters:
// without it, a bit flip in the length could make a mid-file record appear
// to run past EOF and masquerade as a torn tail. With it, every flip inside
// a complete record is loud corruption (typed StoreError naming the record
// index and offset); only genuinely missing bytes at EOF are a torn tail,
// dropped and counted, exactly the ResultStore reload policy. This layout
// is version 2; files of older versions are rejected as corruption.
//
// compact() atomically replaces the file (temp+rename) with a canonical
// event list — after a full drain that is a single snapshot event, so
// journal bytes after compaction are worker-count invariant and the CI
// serve job can diff them the way it diffs store files.
#pragma once

#include "sim/message.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace pcmd::serve {

// Trailing bytes shorter than a length frame are a torn tail.
inline constexpr std::size_t kJournalLengthFrameBytes = 12;

enum class JournalEventKind : std::uint8_t {
  kSubmitted = 1,
  kStarted = 2,
  kCheckpoint = 3,
  kTerminal = 4,
  kSnapshot = 5,
  kPending = 6,
};

const char* journal_event_kind_name(JournalEventKind kind);

// One journal record. Every field is always encoded (the framing is fixed
// per version, not per kind); unused fields stay at their defaults.
struct JournalEvent {
  JournalEventKind kind = JournalEventKind::kSubmitted;
  std::string key;

  // kSubmitted: the admission verdict (serve::Admission as u8), the lane,
  // and — for accepted submissions only — the canonical spec text needed to
  // re-enqueue the job on replay (canonical() excludes priority, hence the
  // separate field).
  std::uint8_t admission = 0;
  std::uint8_t priority = 0;
  std::string spec;

  // kStarted: 1-based attempt counter (fault seeds remix per attempt, so
  // replay must resume at the same attempt to stay deterministic).
  std::int32_t attempt = 0;

  // kCheckpoint: the full PreemptState of a yielded job. A kPending event
  // carries the same fields inline; a non-empty `checkpoint` buffer means
  // the entry resumes from it (real checkpoints are never empty).
  std::int64_t steps_done = 0;
  double virtual_seconds = 0.0;
  std::vector<double> clocks;
  sim::Buffer checkpoint;

  // kTerminal: JobResultRecord::json_line() of the final record.
  std::string record_line;

  // kSnapshot: submission tallies at the compaction point.
  std::uint64_t submitted = 0;
  std::uint64_t malformed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t collapsed = 0;
  std::uint64_t shed = 0;
  std::uint64_t tripped = 0;
};

// Encodes one framed record / the whole event list (deterministic bytes).
sim::Buffer encode_journal_event(const JournalEvent& event);
sim::Buffer encode_journal(const std::vector<JournalEvent>& events);

// Decodes a byte image. A record missing bytes at EOF is a torn tail:
// decoding stops and `torn_bytes_dropped` (optional) receives the count of
// dropped trailing bytes. Any damage inside a complete record throws
// StoreError naming the record index and byte offset.
std::vector<JournalEvent> decode_journal(const sim::Buffer& bytes,
                                         std::size_t* torn_bytes_dropped);

// Whole-file I/O of JobJournal and ResultStore; StoreErrors name `owner`
// and the path. read: nullopt when `path` cannot be opened (a fresh file).
// replace: atomic — `<path>.tmp`, flush, close, rename over `path` — so a
// crash leaves the old complete file or the new one.
std::optional<sim::Buffer> read_durable_file(const std::string& path,
                                             const char* owner);
void replace_durable_file(const std::string& path, const void* data,
                          std::size_t size, const char* owner);

class JobJournal {
 public:
  // Loads `path` if it exists (torn-tail policy above; mid-file corruption
  // throws StoreError) and opens it for appending. A torn tail is dropped,
  // counted AND truncated off the file (atomic rewrite), so the first
  // append lands on a record boundary, never on top of the fragment. An
  // empty path makes the journal memory-less: append/compact are no-ops
  // and events() is empty.
  explicit JobJournal(std::string path);
  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  const std::string& path() const { return path_; }

  // The events found on disk at construction (replay input). Appends made
  // through this object are NOT reflected here.
  const std::vector<JournalEvent>& events() const { return events_; }

  // Bytes dropped off the tail during load — 0 unless the file was torn.
  std::size_t torn_bytes_dropped() const { return torn_bytes_dropped_; }

  // Appends one framed record and flushes it to the OS. Thread-safe.
  // Throws StoreError when the write fails — the service cannot persist
  // its state and must stop loudly.
  void append(const JournalEvent& event);

  // Atomically replaces the file with `events` (temp+rename) and re-opens
  // for appending. Thread-safe.
  void compact(const std::vector<JournalEvent>& events);

 private:
  std::string path_;
  std::vector<JournalEvent> events_;
  std::size_t torn_bytes_dropped_ = 0;
  std::mutex mutex_;
  std::FILE* file_ = nullptr;  // append handle; null for memory-less
};

}  // namespace pcmd::serve
