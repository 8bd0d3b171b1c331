#include "sim/reliable.hpp"

#include "util/frame.hpp"

#include <cstring>
#include <string>

namespace pcmd::sim {

namespace {

// Field words {seq, attempt}; the CRC covers both and the payload, so a
// single flipped byte anywhere in the frame fails the magic or CRC check.
constexpr FrameCodec kReliableFrame(0x52454C41u,  // "RELA"
                                    "seq", "attempt");
static_assert(kReliableFrame.header_bytes() ==
              ReliableChannel::kFrameHeaderBytes);

}  // namespace

PCMD_HOT Buffer ReliableChannel::frame(std::uint32_t seq,
                                       std::uint32_t attempt,
                                       const Buffer& payload) {
  Buffer out = pool_.acquire();
  out.resize(kFrameHeaderBytes + payload.size());
  if (!payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  kReliableFrame.seal(out.data(), out.size(), {seq, attempt});
  return out;
}

void ReliableChannel::send(Comm& comm, int dst, int tag,
                           const Buffer& payload) {
  const std::uint32_t seq = send_seq_[{dst, tag}]++;
  counters_.sends += 1;
  double backoff = 0.0;
  double step = policy_.base_backoff;
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) counters_.retransmissions += 1;
    const auto outcome = comm.send_attempt(
        dst, tag, frame(seq, static_cast<std::uint32_t>(attempt), payload),
        static_cast<std::uint32_t>(attempt), backoff);
    if (outcome.delivered_intact()) return;
    backoff += step;
    step *= policy_.backoff_factor;
  }
  throw PeerDeadError(
      dst, tag,
      "ReliableChannel::send: message to rank " + std::to_string(dst) +
          " tag " + std::to_string(tag) + " seq " + std::to_string(seq) +
          " lost after " + std::to_string(policy_.max_attempts) + " attempts");
}

template <typename Next>
std::optional<Buffer> ReliableChannel::accept(const char* who, int src,
                                              int tag, Next&& next) {
  std::uint32_t& expected = recv_seq_[{src, tag}];
  for (;;) {
    std::optional<Buffer> raw = next();
    if (!raw) return std::nullopt;
    const FrameCheck check = kReliableFrame.open(raw->data(), raw->size());
    const std::uint32_t seq = check.fields[0];
    if (!check.ok() || seq < expected) {  // corrupt, or a stale duplicate
      if (!check.ok()) counters_.corrupt_discarded += 1;
      pool_.release(std::move(*raw));
      continue;
    }
    if (seq > expected) {
      throw ProtocolError(std::string("ReliableChannel::") + who +
                          ": sequence gap from rank " + std::to_string(src) +
                          " tag " + std::to_string(tag) + " (expected " +
                          std::to_string(expected) + ", got " +
                          std::to_string(seq) + ")");
    }
    expected += 1;
    raw->erase(raw->begin(), raw->begin() + kFrameHeaderBytes);
    return raw;
  }
}

Buffer ReliableChannel::recv(Comm& comm, int src, int tag) {
  return *accept("recv", src, tag, [&] {
    return std::optional<Buffer>(comm.recv(src, tag));
  });
}

std::optional<Buffer> ReliableChannel::recv_deadline(Comm& comm, int src,
                                                     int tag, double timeout) {
  return accept("recv_deadline", src, tag, [&] {
    auto raw = comm.recv_deadline(src, tag, timeout);
    if (!raw) counters_.recv_timeouts += 1;
    return raw;
  });
}

}  // namespace pcmd::sim
