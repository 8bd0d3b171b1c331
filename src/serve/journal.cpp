#include "serve/journal.hpp"

#include "serve/error.hpp"
#include "util/frame.hpp"

#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

namespace pcmd::serve {

namespace {

constexpr std::uint32_t kVersion = 2;

// Each record is two frames: a payload-less length frame whose CRC protects
// the size of the record frame behind it, then the record frame itself.
constexpr FrameCodec kLengthFrame(0x504A4C4Eu,  // "PJLN"
                                  "length");
constexpr FrameCodec kRecordFrame(0x504A5243u,  // "PJRC"
                                  "version", "kind");
static_assert(kLengthFrame.header_bytes() == kJournalLengthFrameBytes);

// The full field list is encoded for every kind (the layout is fixed per
// version, not per kind); unused fields ride along at their defaults. The
// event kind itself lives in the record frame's header, not the payload, so
// neither side below touches it.
void pack_journal_payload(const JournalEvent& event, sim::Packer& packer) {
  packer.put_string(event.key);
  packer.put(event.admission);
  packer.put(event.priority);
  packer.put_string(event.spec);
  packer.put(event.attempt);
  packer.put(event.steps_done);
  packer.put(event.virtual_seconds);
  packer.put_vector(event.clocks);
  packer.put_vector(event.checkpoint);
  packer.put_string(event.record_line);
  packer.put(event.submitted);
  packer.put(event.malformed);
  packer.put(event.cache_hits);
  packer.put(event.collapsed);
  packer.put(event.shed);
  packer.put(event.tripped);
}

JournalEvent unpack_journal_payload(sim::Unpacker& unpacker) {
  JournalEvent event;
  event.key = unpacker.get_string();
  event.admission = unpacker.get<std::uint8_t>();
  event.priority = unpacker.get<std::uint8_t>();
  event.spec = unpacker.get_string();
  event.attempt = unpacker.get<std::int32_t>();
  event.steps_done = unpacker.get<std::int64_t>();
  event.virtual_seconds = unpacker.get<double>();
  event.clocks = unpacker.get_vector<double>();
  event.checkpoint = unpacker.get_vector<std::uint8_t>();
  event.record_line = unpacker.get_string();
  event.submitted = unpacker.get<std::uint64_t>();
  event.malformed = unpacker.get<std::uint64_t>();
  event.cache_hits = unpacker.get<std::uint64_t>();
  event.collapsed = unpacker.get<std::uint64_t>();
  event.shed = unpacker.get<std::uint64_t>();
  event.tripped = unpacker.get<std::uint64_t>();
  return event;
}

}  // namespace

const char* journal_event_kind_name(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kSubmitted: return "submitted";
    case JournalEventKind::kStarted: return "started";
    case JournalEventKind::kCheckpoint: return "checkpoint";
    case JournalEventKind::kTerminal: return "terminal";
    case JournalEventKind::kSnapshot: return "snapshot";
    case JournalEventKind::kPending: return "pending";
  }
  return "?";
}

sim::Buffer encode_journal_event(const JournalEvent& event) {
  // Capacity: the variable-length fields plus a bound on the fixed ones.
  sim::Packer packer(kJournalLengthFrameBytes + kRecordFrame.header_bytes(),
                     event.key.size() + event.spec.size() +
                         event.record_line.size() +
                         event.clocks.size() * sizeof(double) +
                         event.checkpoint.size() + 128);
  pack_journal_payload(event, packer);
  sim::Buffer out = packer.take();
  const std::size_t record_size = out.size() - kJournalLengthFrameBytes;
  if (record_size > std::numeric_limits<std::uint32_t>::max()) {
    throw StoreError("job journal: record of " + std::to_string(record_size) +
                     " bytes exceeds the 4 GiB frame limit");
  }
  kRecordFrame.seal(out.data() + kJournalLengthFrameBytes, record_size,
                    {kVersion, static_cast<std::uint32_t>(event.kind)});
  kLengthFrame.seal(out.data(), kJournalLengthFrameBytes,
                    {static_cast<std::uint32_t>(record_size)});
  return out;
}

sim::Buffer encode_journal(const std::vector<JournalEvent>& events) {
  sim::Buffer out;
  for (const auto& event : events) {
    const sim::Buffer record = encode_journal_event(event);
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

std::vector<JournalEvent> decode_journal(const sim::Buffer& bytes,
                                         std::size_t* torn_bytes_dropped) {
  std::vector<JournalEvent> events;
  if (torn_bytes_dropped != nullptr) *torn_bytes_dropped = 0;
  std::size_t pos = 0;
  const auto corrupt = [&](const std::string& what) {
    return StoreError("job journal: record " + std::to_string(events.size()) +
                      " (offset " + std::to_string(pos) + "): " + what);
  };
  while (pos < bytes.size()) {
    const std::size_t left = bytes.size() - pos;
    if (left < kJournalLengthFrameBytes) break;  // length frame cut at EOF
    // A damaged length frame can't be trusted about the record size, so it
    // is corruption, never a torn tail.
    const FrameCheck length =
        kLengthFrame.open(bytes.data() + pos, kJournalLengthFrameBytes);
    if (!length.ok()) {
      throw corrupt("length frame: " + kLengthFrame.describe(length));
    }
    const std::size_t record_size = length.fields[0];
    // The length is intact, so it is truthful: the record frame really is
    // missing bytes at EOF — a torn tail.
    if (left - kJournalLengthFrameBytes < record_size) break;
    const std::size_t record_begin = pos + kJournalLengthFrameBytes;
    const FramePins pins = {kVersion, std::nullopt};
    const FrameCheck record =
        kRecordFrame.open(bytes.data() + record_begin, record_size, pins);
    if (!record.ok()) {
      throw corrupt("record frame at byte " + std::to_string(record_begin) +
                    ": " + kRecordFrame.describe(record, pins));
    }
    const std::uint32_t kind = record.fields[1];
    if (kind < static_cast<std::uint32_t>(JournalEventKind::kSubmitted) ||
        kind > static_cast<std::uint32_t>(JournalEventKind::kPending)) {
      throw corrupt("unknown event kind " + std::to_string(kind));
    }
    try {
      events.push_back(sim::checked_decode<StoreError>(
          "record payload",
          sim::Unpacker(bytes.data() + record_begin, record_size,
                        kRecordFrame.header_bytes()),
          unpack_journal_payload));
    } catch (const StoreError& e) {
      throw corrupt(e.what());
    }
    events.back().kind = static_cast<JournalEventKind>(kind);
    pos = record_begin + record_size;
  }
  if (torn_bytes_dropped != nullptr) *torn_bytes_dropped = bytes.size() - pos;
  return events;
}

std::optional<sim::Buffer> read_durable_file(const std::string& path,
                                             const char* owner) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return std::nullopt;
  sim::Buffer bytes;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool ok = std::feof(in) != 0 && std::ferror(in) == 0;
  std::fclose(in);
  if (!ok) {
    throw StoreError(std::string(owner) + ": read error on '" + path + "'");
  }
  return bytes;
}

void replace_durable_file(const std::string& path, const void* data,
                          std::size_t size, const char* owner) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    throw StoreError(std::string(owner) + ": cannot open '" + tmp +
                     "' for writing");
  }
  bool ok = size == 0 || std::fwrite(data, 1, size, out) == size;
  ok = std::fflush(out) == 0 && ok;
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw StoreError(std::string(owner) + ": short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw StoreError(std::string(owner) + ": cannot rename '" + tmp +
                     "' over '" + path + "': " + std::strerror(errno));
  }
}

JobJournal::JobJournal(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  if (const auto bytes = read_durable_file(path_, "job journal")) {
    try {
      events_ = decode_journal(*bytes, &torn_bytes_dropped_);
    } catch (const StoreError& e) {
      throw StoreError(std::string(e.what()) + " in '" + path_ + "'");
    }
  }
  if (torn_bytes_dropped_ > 0) {
    // Truncate the torn fragment off the file (atomically, via the compact
    // path) so the first append lands on a valid record boundary instead
    // of on top of the damage.
    compact(events_);
    return;  // compact() opened the append handle
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw StoreError("job journal: cannot open '" + path_ +
                     "' for appending");
  }
}

JobJournal::~JobJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void JobJournal::append(const JournalEvent& event) {
  if (path_.empty()) return;
  const sim::Buffer record = encode_journal_event(event);
  const std::lock_guard<std::mutex> lock(mutex_);
  const bool ok =
      std::fwrite(record.data(), 1, record.size(), file_) == record.size() &&
      std::fflush(file_) == 0;
  if (!ok) {
    throw StoreError("job journal: short write to '" + path_ + "'");
  }
}

void JobJournal::compact(const std::vector<JournalEvent>& events) {
  if (path_.empty()) return;
  const sim::Buffer bytes = encode_journal(events);
  const std::lock_guard<std::mutex> lock(mutex_);
  replace_durable_file(path_, bytes.data(), bytes.size(), "job journal");
  // Re-open the append handle on the new file (there is none yet when the
  // constructor compacts a torn tail away).
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw StoreError("job journal: cannot re-open '" + path_ +
                     "' after compaction");
  }
}

}  // namespace pcmd::serve
