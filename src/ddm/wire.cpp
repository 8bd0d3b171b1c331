#include "ddm/wire.hpp"

#include "sim/comm.hpp"
#include "util/frame.hpp"

#include <string>
#include <utility>

namespace pcmd::ddm {

namespace {

constexpr FrameCodec kWireFrame(0x504D4457u);  // "PMDW", no field words
static_assert(kWireFrame.header_bytes() == kWireHeaderBytes);

sim::Buffer seal(sim::Packer& packer) {
  sim::Buffer buffer = packer.take();
  kWireFrame.seal(buffer.data(), buffer.size());
  return buffer;
}

// Checks the wire header in place (a short buffer is truncation, so
// ProtocolError; a magic or CRC mismatch is in-flight corruption, so
// ChecksumError), then decodes the payload behind it on the shared checked
// path: a short or misshapen payload and trailing bytes both become
// sim::ProtocolError naming the message kind.
template <typename F>
auto checked_unpack(const char* what, sim::Buffer buffer, F&& body) {
  const FrameCheck check = kWireFrame.open(buffer.data(), buffer.size());
  if (check.fault == FrameFault::kShort) {
    throw sim::ProtocolError(std::string(what) +
                             ": buffer shorter than the wire header");
  }
  if (!check.ok()) {
    throw sim::ChecksumError(std::string(what) +
                             ": payload corrupted in flight: " +
                             kWireFrame.describe(check));
  }
  return sim::checked_decode<sim::ProtocolError>(
      what, sim::Unpacker(std::move(buffer), kWireHeaderBytes),
      std::forward<F>(body));
}
}  // namespace

sim::Buffer pack_digest(double busy_seconds,
                        const std::vector<std::int32_t>& columns) {
  sim::Packer packer(kWireHeaderBytes,
                     sizeof(DigestHeader) + sizeof(std::uint64_t) +
                         columns.size() * sizeof(std::int32_t));
  DigestHeader header;
  header.busy_seconds = busy_seconds;
  packer.put(header);
  packer.put_vector(columns);
  return seal(packer);
}

void unpack_digest(sim::Buffer buffer, double& busy_seconds,
                   std::vector<std::int32_t>& columns) {
  auto result = checked_unpack(
      "unpack_digest", std::move(buffer), [](sim::Unpacker& unpacker) {
        const double busy = unpacker.get<DigestHeader>().busy_seconds;
        return std::pair(busy, unpacker.get_vector<std::int32_t>());
      });
  busy_seconds = result.first;
  columns = std::move(result.second);
}

sim::Buffer pack_announce(const AnnounceRecord& record) {
  sim::Packer packer(kWireHeaderBytes, sizeof(AnnounceRecord));
  packer.put(record);
  return seal(packer);
}

AnnounceRecord unpack_announce(sim::Buffer buffer) {
  return checked_unpack(
      "unpack_announce", std::move(buffer),
      [](sim::Unpacker& unpacker) { return unpacker.get<AnnounceRecord>(); });
}

sim::Buffer pack_particles(const std::vector<md::Particle>& particles) {
  sim::Packer packer(kWireHeaderBytes,
                     sizeof(std::uint64_t) +
                         particles.size() * sizeof(md::Particle));
  packer.put_vector(particles);
  return seal(packer);
}

std::vector<md::Particle> unpack_particles(sim::Buffer buffer) {
  return checked_unpack("unpack_particles", std::move(buffer),
                        [](sim::Unpacker& unpacker) {
                          return unpacker.get_vector<md::Particle>();
                        });
}

sim::Buffer pack_halo(const std::vector<HaloRecord>& records) {
  sim::Packer packer(kWireHeaderBytes,
                     sizeof(std::uint64_t) + records.size() * sizeof(HaloRecord));
  packer.put_vector(records);
  return seal(packer);
}

std::vector<HaloRecord> unpack_halo(sim::Buffer buffer) {
  return checked_unpack("unpack_halo", std::move(buffer),
                        [](sim::Unpacker& unpacker) {
                          return unpacker.get_vector<HaloRecord>();
                        });
}

sim::Buffer pack_slab_info(const SlabInfo& info) {
  sim::Packer packer(kWireHeaderBytes, sizeof(SlabInfo));
  packer.put(info);
  return seal(packer);
}

SlabInfo unpack_slab_info(sim::Buffer buffer) {
  return checked_unpack(
      "unpack_slab_info", std::move(buffer),
      [](sim::Unpacker& unpacker) { return unpacker.get<SlabInfo>(); });
}

}  // namespace pcmd::ddm
