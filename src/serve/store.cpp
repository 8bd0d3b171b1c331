#include "serve/store.hpp"

#include "serve/error.hpp"
#include "serve/flat_json.hpp"
#include "serve/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace pcmd::serve {

namespace {

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

class Fields {
 public:
  explicit Fields(const std::string& line) {
    try {
      fields_ = parse_flat_json(line);
    } catch (const std::invalid_argument& e) {
      throw StoreError(std::string("result store: bad record: ") + e.what());
    }
  }

  const std::string& get(const char* key) const {
    for (const auto& [name, value] : fields_) {
      if (name == key) return value;
    }
    throw StoreError(std::string("result store: record is missing \"") + key +
                     "\"");
  }

  std::int64_t get_int(const char* key) const {
    const std::string& text = get(key);
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
      throw StoreError(std::string("result store: field \"") + key +
                       "\" is not an integer: \"" + text + "\"");
    }
    return v;
  }

  double get_double(const char* key) const {
    const std::string& text = get(key);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
      throw StoreError(std::string("result store: field \"") + key +
                       "\" is not a number: \"" + text + "\"");
    }
    return v;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace

const char* job_outcome_name(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kSucceeded: return "succeeded";
    case JobOutcome::kDeadline: return "deadline";
    case JobOutcome::kQuarantined: return "quarantined";
  }
  return "?";
}

JobOutcome parse_job_outcome(const std::string& name) {
  if (name == "succeeded") return JobOutcome::kSucceeded;
  if (name == "deadline") return JobOutcome::kDeadline;
  if (name == "quarantined") return JobOutcome::kQuarantined;
  throw StoreError("result store: unknown outcome \"" + name + "\"");
}

std::string JobResultRecord::json_line() const {
  // Keys in alphabetical order, every field always present — the byte
  // layout of a record is a pure function of its values.
  std::string out = "{";
  out += "\"attempts\": " + std::to_string(attempts);
  out += ", \"error\": \"" + json_escape(error) + "\"";
  out += ", \"failure\": \"" + json_escape(failure) + "\"";
  out += ", \"key\": \"" + json_escape(key) + "\"";
  out += ", \"kinetic_energy\": " + format_double(kinetic_energy);
  out += ", \"outcome\": \"" + std::string(job_outcome_name(outcome)) + "\"";
  out += ", \"potential_energy\": " + format_double(potential_energy);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"spec\": \"" + json_escape(spec) + "\"";
  out += ", \"steps\": " + std::to_string(steps);
  out += ", \"trajectory_digest\": \"" + json_escape(trajectory_digest) + "\"";
  out += ", \"virtual_seconds\": " + format_double(virtual_seconds);
  out += "}";
  return out;
}

JobResultRecord JobResultRecord::parse(const std::string& line) {
  const Fields fields(line);
  JobResultRecord record;
  record.key = fields.get("key");
  record.spec = fields.get("spec");
  record.seed = static_cast<std::uint64_t>(fields.get_int("seed"));
  record.outcome = parse_job_outcome(fields.get("outcome"));
  record.attempts = static_cast<int>(fields.get_int("attempts"));
  record.steps = fields.get_int("steps");
  record.virtual_seconds = fields.get_double("virtual_seconds");
  record.trajectory_digest = fields.get("trajectory_digest");
  record.potential_energy = fields.get_double("potential_energy");
  record.kinetic_energy = fields.get_double("kinetic_energy");
  record.failure = fields.get("failure");
  record.error = fields.get("error");
  if (record.key.empty()) {
    throw StoreError("result store: record has an empty key");
  }
  return record;
}

ResultStore::ResultStore(std::string path, FlushMode mode)
    : path_(std::move(path)), mode_(mode) {
  if (path_.empty()) return;
  const auto bytes = read_durable_file(path_, "result store");
  if (!bytes) return;  // fresh store
  const std::string text(bytes->begin(), bytes->end());

  std::size_t pos = 0;
  std::size_t line_number = 0;
  while (pos < text.size()) {
    const std::size_t newline = text.find('\n', pos);
    const bool last =
        newline == std::string::npos || newline + 1 >= text.size();
    const std::string line = text.substr(
        pos, newline == std::string::npos ? std::string::npos : newline - pos);
    ++line_number;
    if (!line.empty()) {
      try {
        JobResultRecord record = JobResultRecord::parse(line);
        records_[record.key] = std::move(record);
      } catch (const StoreError& e) {
        // A record can only legitimately be damaged at the very end of the
        // file (torn final write); anywhere else is corruption.
        if (!last || newline != std::string::npos) {
          throw StoreError("result store: '" + path_ + "' line " +
                           std::to_string(line_number) + ": " + e.what());
        }
        ++torn_dropped_;
      }
    }
    if (newline == std::string::npos) break;
    pos = newline + 1;
  }
}

std::string ResultStore::key_of(const JobSpec& job) {
  return job.digest_hex() + ":" + std::to_string(job.run.system.seed);
}

std::optional<JobResultRecord> ResultStore::find(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

void ResultStore::put(JobResultRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_[record.key] = std::move(record);
  if (mode_ == FlushMode::kEveryPut) rewrite_locked();
}

void ResultStore::compact() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  rewrite_locked();
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::map<std::string, JobResultRecord> ResultStore::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

void ResultStore::rewrite_locked() const {
  if (path_.empty()) return;
  std::string text;
  for (const auto& [key, record] : records_) {
    (void)key;
    text += record.json_line();
    text += '\n';
  }
  replace_durable_file(path_, text.data(), text.size(), "result store");
}

}  // namespace pcmd::serve
