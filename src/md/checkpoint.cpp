#include "md/checkpoint.hpp"

#include "util/frame.hpp"

#include <string>

namespace pcmd::md {

namespace {

constexpr FrameCodec kCheckpointFrame(0x50434B50u,  // "PCKP"
                                      "version", "kind");
static_assert(kCheckpointFrame.header_bytes() == kCheckpointHeaderBytes);

}  // namespace

sim::Buffer seal_checkpoint(CheckpointKind kind, sim::Packer& packer) {
  sim::Buffer sealed = packer.take();
  kCheckpointFrame.seal(sealed.data(), sealed.size(),
                        {kCheckpointVersion, static_cast<std::uint32_t>(kind)});
  return sealed;
}

void open_checkpoint(CheckpointKind kind, const sim::Buffer& sealed) {
  const FramePins pins = {kCheckpointVersion,
                          static_cast<std::uint32_t>(kind)};
  const FrameCheck check =
      kCheckpointFrame.open(sealed.data(), sealed.size(), pins);
  if (!check.ok()) {
    throw CheckpointError("checkpoint: " +
                          kCheckpointFrame.describe(check, pins));
  }
}

sim::Buffer pack_serial_checkpoint(const SerialCheckpoint& state) {
  sim::Packer packer(kCheckpointHeaderBytes);
  packer.put(state.step);
  packer.put(state.box);
  packer.put_vector(state.particles);
  packer.put(static_cast<std::uint8_t>(state.has_rng ? 1 : 0));
  for (const std::uint64_t word : state.rng_state) packer.put(word);
  return seal_checkpoint(CheckpointKind::kSerial, packer);
}

SerialCheckpoint unpack_serial_checkpoint(sim::Buffer sealed) {
  return decode_checkpoint(
      CheckpointKind::kSerial, "checkpoint: serial payload", std::move(sealed),
      [](sim::Unpacker& unpacker) {
        SerialCheckpoint state;
        state.step = unpacker.get<std::int64_t>();
        state.box = unpacker.get<Box>();
        state.particles = unpacker.get_vector<Particle>();
        state.has_rng = unpacker.get<std::uint8_t>() != 0;
        for (auto& word : state.rng_state) {
          word = unpacker.get<std::uint64_t>();
        }
        return state;
      });
}

}  // namespace pcmd::md
