#include "host_trace.hpp"

#include "ddm/wire.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace pcmdbench {

void HostTraceSink::on_attach(int ranks) {
  ranks_.assign(static_cast<std::size_t>(ranks), {});
  sends_.assign(static_cast<std::size_t>(ranks), {});
}

void HostTraceSink::stamp(int rank, int sent_tag) {
  const std::int64_t t = now_ns();
  const int phase = engine_.current_phase();
  auto& list = ranks_[static_cast<std::size_t>(rank)];
  if (list.empty() || list.back().phase != phase) {
    list.push_back({phase, t, t, 0});
  }
  PhaseStamp& current = list.back();
  current.last_ns = t;
  if (sent_tag >= 0 && sent_tag < 32) current.sent_tags |= 1u << sent_tag;
}

void HostTraceSink::on_compute(int rank, double, double) { stamp(rank, -1); }

void HostTraceSink::on_send(int rank, int, int tag, std::size_t bytes,
                            double) {
  stamp(rank, tag);
  sends_[static_cast<std::size_t>(rank)].push_back(
      {tag, static_cast<std::uint32_t>(bytes)});
}

void HostTraceSink::on_recv(int rank, int, int, std::size_t, double, double) {
  stamp(rank, -1);
}

void HostTraceSink::on_collective_begin(int rank, int, std::size_t, double) {
  stamp(rank, -1);
}

void HostTraceSink::on_collective_end(int rank, double, double) {
  stamp(rank, -1);
}

std::vector<PhaseStamp> HostTraceSink::merged_phases() const {
  std::map<int, PhaseStamp> merged;
  for (const auto& list : ranks_) {
    for (const PhaseStamp& s : list) {
      auto [it, fresh] = merged.try_emplace(s.phase, s);
      if (!fresh) {
        it->second.first_ns = std::min(it->second.first_ns, s.first_ns);
        it->second.last_ns = std::max(it->second.last_ns, s.last_ns);
        it->second.sent_tags |= s.sent_tags;
      }
    }
  }
  std::vector<PhaseStamp> out;
  out.reserve(merged.size());
  for (const auto& [phase, s] : merged) out.push_back(s);
  return out;
}

std::vector<std::size_t> HostTraceSink::send_sizes() const {
  std::vector<std::size_t> out;
  for (const auto& list : sends_) {
    for (const Send& s : list) out.push_back(s.bytes);
  }
  return out;
}

std::vector<std::size_t> HostTraceSink::send_sizes(int tag) const {
  std::vector<std::size_t> out;
  for (const auto& list : sends_) {
    for (const Send& s : list) {
      if (s.tag == tag) out.push_back(s.bytes);
    }
  }
  return out;
}

StepPhaseTimes attribute_step(const std::vector<PhaseStamp>& merged,
                              int first_phase, int end_phase,
                              std::int64_t step_begin_ns,
                              std::int64_t step_end_ns) {
  constexpr std::uint32_t kDigestBit = 1u << pcmd::ddm::kTagDigest;
  constexpr int kOther = 6;
  StepPhaseTimes out;
  const auto begin = std::lower_bound(
      merged.begin(), merged.end(), first_phase,
      [](const PhaseStamp& s, int phase) { return s.phase < phase; });
  std::int64_t cursor = step_begin_ns;
  int digest_phase = -1;
  for (auto it = begin; it != merged.end() && it->phase < end_phase; ++it) {
    if ((it->sent_tags & kDigestBit) != 0) digest_phase = it->phase;
    const int offset = digest_phase < 0 ? -1 : it->phase - digest_phase;
    const int slot = (offset >= 0 && offset < 6) ? offset : kOther;
    const std::int64_t end = std::clamp(it->last_ns, cursor, step_end_ns);
    out.ns[static_cast<std::size_t>(slot)] += static_cast<double>(end - cursor);
    cursor = end;
  }
  out.ns[kOther] += static_cast<double>(step_end_ns - cursor);
  return out;
}

void SpanLog::add(const std::string& name, const std::string& layer,
                  std::int64_t begin_ns, std::int64_t end_ns) {
  spans_.push_back({name, layer, begin_ns, end_ns});
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 const HostTraceSink* sink) const {
  std::int64_t origin = INT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.begin_ns);
  if (sink != nullptr) {
    for (const auto& list : sink->rank_phases()) {
      for (const PhaseStamp& s : list) origin = std::min(origin, s.first_ns);
    }
  }
  if (origin == INT64_MAX) origin = 0;
  const auto us = [origin](std::int64_t ns) {
    return json_number(static_cast<double>(ns - origin) * 1e-3);
  };

  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out << "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"harness\"}},\n";
  out << "{\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"ranks\"}}";
  for (const Span& s : spans_) {
    out << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": "
        << json_string(s.name) << ", \"cat\": " << json_string(s.layer)
        << ", \"ts\": " << us(s.begin_ns)
        << ", \"dur\": " << json_number(static_cast<double>(s.end_ns - s.begin_ns) * 1e-3)
        << "}";
  }
  if (sink != nullptr) {
    const auto& ranks = sink->rank_phases();
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      for (const PhaseStamp& s : ranks[r]) {
        out << ",\n{\"ph\": \"X\", \"pid\": 2, \"tid\": " << r
            << ", \"name\": \"phase " << s.phase << "\", \"cat\": \"sim\""
            << ", \"ts\": " << us(s.first_ns) << ", \"dur\": "
            << json_number(static_cast<double>(s.last_ns - s.first_ns) * 1e-3)
            << "}";
      }
    }
  }
  out << "\n]}\n";
}

}  // namespace pcmdbench
