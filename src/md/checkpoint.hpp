// Versioned checkpoint serialization for the MD engines.
//
// A checkpoint is a util/frame.hpp frame — magic "PCKP", field words
// {version, kind}, CRC32 over both and the payload — around an
// engine-specific payload packed with sim::Packer. The header is checked
// before a single payload field is read, so a truncated, stale-version,
// foreign-kind or bit-flipped checkpoint fails loudly instead of
// resurrecting garbage state.
//
// Restart contract: an engine restored from a checkpoint taken at step S
// continues the trajectory *bitwise identically* to the uninterrupted run —
// particle order, force recomputation, thermostat schedule (a function of
// the absolute step number) and DLB decisions (functions of the restored
// busy times) all resume exactly. See ParallelMd::checkpoint / the
// checkpoint ctor, SlabMd's equivalents, and SerialCheckpoint +
// SerialMdConfig::initial_step for the serial engine.
#pragma once

#include "md/particle.hpp"
#include "sim/message.hpp"
#include "util/pbc.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace pcmd::md {

// Version 2: the CRC also covers the version and kind words.
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::size_t kCheckpointHeaderBytes = 16;

// Every way a checkpoint can fail to load — short header, bad magic,
// version/kind mismatch, checksum failure, truncated or oversized payload —
// throws this one typed error, with the failing field (and byte offset,
// where one is meaningful) in the message. Derives
// std::runtime_error so existing catch sites keep working; layers above
// (the serve scheduler in particular) catch the type to classify "stored
// state is bad" without string-matching.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Payload kinds, so a checkpoint from one engine cannot be fed to another.
enum class CheckpointKind : std::uint32_t {
  kSerial = 1,
  kParallel = 2,
  kSlab = 3,
  // Per-role buddy envelope replicated to a torus neighbour every K steps
  // (ddm/recovery.hpp); replayed to restore a dead role losslessly.
  kBuddy = 4,
};

// Seals a sim::Packer(kCheckpointHeaderBytes) as a `kind` checkpoint, in
// place.
sim::Buffer seal_checkpoint(CheckpointKind kind, sim::Packer& packer);

// Checks the header (magic, version, kind, checksum); throws
// CheckpointError naming the first mismatching field and its byte offset.
void open_checkpoint(CheckpointKind kind, const sim::Buffer& sealed);

// open_checkpoint, then sim::checked_decode of the payload with
// `body(sim::Unpacker&)`, throwing CheckpointError prefixed with `what`.
template <typename Body>
auto decode_checkpoint(CheckpointKind kind, const char* what,
                       sim::Buffer sealed, Body&& body) {
  open_checkpoint(kind, sealed);
  return sim::checked_decode<CheckpointError>(
      what, sim::Unpacker(std::move(sealed), kCheckpointHeaderBytes),
      std::forward<Body>(body));
}

// Serial engine state. Resume by constructing SerialMd with `particles` and
// SerialMdConfig::initial_step = `step`; restore the RNG stream (when
// captured) for workloads that keep drawing random numbers mid-run.
struct SerialCheckpoint {
  std::int64_t step = 0;
  Box box;
  ParticleVector particles;
  bool has_rng = false;
  std::array<std::uint64_t, 4> rng_state{};
};

sim::Buffer pack_serial_checkpoint(const SerialCheckpoint& state);
SerialCheckpoint unpack_serial_checkpoint(sim::Buffer sealed);

}  // namespace pcmd::md
