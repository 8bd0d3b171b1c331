// Fuzz battery for checkpoint-envelope decoding, in the style of
// ddm/wire_property_test.cpp: exact round-trips, then systematic corruption
// (truncation at every length, trailing bytes, every single-byte flip,
// kind confusion, field-level lies) against the buddy envelope and the
// serial checkpoint. The contract under test: every corruption throws
// std::runtime_error *before* any caller state is touched — decode returns
// a fully validated value or nothing.
#include "md/checkpoint.hpp"

#include "ddm/recovery.hpp"
#include "sim/message.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace pcmd {
namespace {

md::ParticleVector random_particles(Rng& rng, std::size_t count) {
  md::ParticleVector particles(count);
  for (auto& p : particles) {
    p.id = static_cast<std::int64_t>(rng.next_u64() >> 1);
    p.position = {rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0),
                  rng.uniform(-20.0, 20.0)};
    p.velocity = {rng.normal(), rng.normal(), rng.normal()};
    p.force = {rng.normal(), rng.normal(), rng.normal()};
  }
  return particles;
}

ddm::RankEnvelope random_envelope(Rng& rng, int columns) {
  ddm::RankEnvelope envelope;
  envelope.role = static_cast<std::int32_t>(rng.uniform_index(9));
  envelope.generation = static_cast<std::int64_t>(rng.uniform_index(1000));
  envelope.owned = random_particles(rng, 5 + rng.uniform_index(20));
  envelope.owners.resize(static_cast<std::size_t>(columns));
  for (auto& owner : envelope.owners) {
    owner = static_cast<std::int32_t>(rng.uniform_index(9));
  }
  envelope.last_busy = rng.uniform(0.0, 2.0);
  envelope.force_seconds = rng.uniform(0.0, 2.0);
  return envelope;
}

constexpr int kColumns = 36;  // the 3x3, m=2 layout's column count

TEST(CheckpointFuzz, DecodeFailuresAreTypedCheckpointErrors) {
  // The precise type matters to the serve layer: an md::CheckpointError is
  // classified kInternal (not retryable), distinct from protocol and spec
  // errors. It must stay a runtime_error for the legacy catch sites below.
  static_assert(std::is_base_of_v<std::runtime_error, md::CheckpointError>);
  Rng rng(37);
  auto sealed = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  EXPECT_THROW((void)ddm::unpack_rank_envelope(sealed, kColumns + 1),
               md::CheckpointError);
  sealed.resize(sealed.size() / 2);
  EXPECT_THROW((void)ddm::unpack_rank_envelope(sealed, kColumns),
               md::CheckpointError);
  EXPECT_THROW((void)md::unpack_serial_checkpoint({}), md::CheckpointError);
}

// A version-1 checkpoint around `payload`: {magic, 1, kind, CRC32(payload)}
// — version 1's CRC covered the payload only.
sim::Buffer version1_checkpoint(md::CheckpointKind kind,
                                const sim::Buffer& payload) {
  const std::uint32_t words[4] = {0x50434B50u, 1u,
                                  static_cast<std::uint32_t>(kind),
                                  crc32(payload.data(), payload.size())};
  sim::Buffer sealed(sizeof(words) + payload.size());
  std::memcpy(sealed.data(), words, sizeof(words));
  std::copy(payload.begin(), payload.end(), sealed.begin() + sizeof(words));
  return sealed;
}

TEST(CheckpointFuzz, Version1CheckpointsAreRejectedNamingTheVersionField) {
  // The same payloads, framed as version 1: each must fail on the version
  // field by name — not as a checksum mismatch — before any field is read.
  Rng rng(39);
  const auto buddy = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  md::SerialCheckpoint state;
  state.step = 3;
  state.box = Box::cubic(9.0);
  state.particles = random_particles(rng, 4);
  const auto serial = md::pack_serial_checkpoint(state);
  ASSERT_EQ(md::kCheckpointVersion, 2u);
  const auto v1 = [](md::CheckpointKind kind, const sim::Buffer& sealed) {
    return version1_checkpoint(
        kind, sim::Buffer(sealed.begin() + md::kCheckpointHeaderBytes,
                          sealed.end()));
  };
  const std::string expected = "version field at byte 4 is 1 (expected 2)";
  try {
    (void)ddm::unpack_rank_envelope(v1(md::CheckpointKind::kBuddy, buddy),
                                    kColumns);
    FAIL() << "version-1 buddy envelope decoded";
  } catch (const md::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
  try {
    (void)md::unpack_serial_checkpoint(
        v1(md::CheckpointKind::kSerial, serial));
    FAIL() << "version-1 serial checkpoint decoded";
  } catch (const md::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFuzz, BuddyEnvelopeRoundTripsExactly) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const auto envelope = random_envelope(rng, kColumns);
    const auto out = ddm::unpack_rank_envelope(
        ddm::pack_rank_envelope(envelope), kColumns);
    ASSERT_EQ(out.role, envelope.role);
    ASSERT_EQ(out.generation, envelope.generation);
    ASSERT_EQ(out.last_busy, envelope.last_busy);  // bitwise: memcpy packing
    ASSERT_EQ(out.force_seconds, envelope.force_seconds);
    ASSERT_EQ(out.owners, envelope.owners);
    ASSERT_EQ(out.owned.size(), envelope.owned.size());
    for (std::size_t i = 0; i < out.owned.size(); ++i) {
      ASSERT_EQ(out.owned[i].id, envelope.owned[i].id);
      ASSERT_EQ(out.owned[i].position, envelope.owned[i].position);
      ASSERT_EQ(out.owned[i].velocity, envelope.owned[i].velocity);
    }
  }
}

TEST(CheckpointFuzz, BuddyEnvelopeTruncationAtEveryLengthThrows) {
  Rng rng(43);
  const auto sealed = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    const sim::Buffer cut(sealed.begin(),
                          sealed.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)ddm::unpack_rank_envelope(cut, kColumns),
                 std::runtime_error)
        << "truncated to " << len << " of " << sealed.size();
  }
}

TEST(CheckpointFuzz, BuddyEnvelopeTrailingBytesThrow) {
  Rng rng(47);
  for (std::size_t extra = 1; extra <= 9; ++extra) {
    auto sealed = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
    sealed.resize(sealed.size() + extra, 0x5a);
    EXPECT_THROW((void)ddm::unpack_rank_envelope(std::move(sealed), kColumns),
                 std::runtime_error)
        << extra << " trailing bytes";
  }
}

TEST(CheckpointFuzz, BuddyEnvelopeEverySingleByteFlipThrows) {
  // Header bytes trip the magic/version/kind checks, payload bytes trip the
  // CRC32 — either way the decode must throw, never return scrambled state.
  Rng rng(53);
  const auto sealed = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      auto corrupted = sealed;
      corrupted[byte] ^= mask;
      EXPECT_THROW(
          (void)ddm::unpack_rank_envelope(std::move(corrupted), kColumns),
          std::runtime_error)
          << "byte " << byte << " mask " << int(mask);
    }
  }
}

TEST(CheckpointFuzz, BuddyEnvelopeRejectsForeignCheckpointKinds) {
  // A well-formed checkpoint of any *other* kind must not open as a buddy
  // envelope: the kind field is part of the envelope, not a convention.
  Rng rng(59);
  md::SerialCheckpoint serial;
  serial.step = 7;
  serial.box = Box::cubic(10.0);
  serial.particles = random_particles(rng, 8);
  EXPECT_THROW((void)ddm::unpack_rank_envelope(
                   md::pack_serial_checkpoint(serial), kColumns),
               std::runtime_error);

  // And the reverse: a buddy envelope is not a serial checkpoint.
  const auto buddy = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  EXPECT_THROW((void)md::unpack_serial_checkpoint(buddy), std::runtime_error);
}

TEST(CheckpointFuzz, BuddyEnvelopeRejectsFieldLevelLies) {
  // The envelope can be bit-perfect and still invalid for the decomposition
  // restoring it: wrong column-map width, negative role or generation. These
  // are validated before the caller sees the object.
  Rng rng(61);
  auto envelope = random_envelope(rng, kColumns);
  const auto sealed = ddm::pack_rank_envelope(envelope);
  EXPECT_THROW((void)ddm::unpack_rank_envelope(sealed, kColumns + 1),
               std::runtime_error);
  EXPECT_THROW((void)ddm::unpack_rank_envelope(sealed, 0), std::runtime_error);

  envelope.role = -3;
  EXPECT_THROW((void)ddm::unpack_rank_envelope(
                   ddm::pack_rank_envelope(envelope), kColumns),
               std::runtime_error);
  envelope.role = 0;
  envelope.generation = -1;
  EXPECT_THROW((void)ddm::unpack_rank_envelope(
                   ddm::pack_rank_envelope(envelope), kColumns),
               std::runtime_error);
}

TEST(CheckpointFuzz, RandomGarbageNeverCrashesEitherDecoder) {
  Rng rng(67);
  for (int trial = 0; trial < 400; ++trial) {
    sim::Buffer garbage(rng.uniform_index(160));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
    }
    // Any outcome is fine except a crash or a non-runtime_error exception.
    try {
      (void)ddm::unpack_rank_envelope(garbage, kColumns);
    } catch (const std::runtime_error&) {
    }
    try {
      (void)md::unpack_serial_checkpoint(garbage);
    } catch (const std::runtime_error&) {
    }
    try {
      (void)md::open_checkpoint(md::CheckpointKind::kBuddy, garbage);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(CheckpointFuzz, SerialCheckpointEveryByteFlipThrows) {
  Rng rng(71);
  md::SerialCheckpoint state;
  state.step = 12;
  state.box = Box::cubic(12.0);
  state.particles = random_particles(rng, 6);
  const auto sealed = md::pack_serial_checkpoint(state);
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    auto corrupted = sealed;
    corrupted[byte] ^= 0x40;
    EXPECT_THROW((void)md::unpack_serial_checkpoint(std::move(corrupted)),
                 std::runtime_error)
        << "byte " << byte;
  }
}

TEST(CheckpointFuzz, DecodeFailureLeavesCallerStateUntouched) {
  // The recovery driver's usage pattern: decode into a fresh object and
  // assign only on success. Assert the sharp edge directly — a throwing
  // decode must not have mutated the destination.
  Rng rng(73);
  const auto good = random_envelope(rng, kColumns);
  ddm::RankEnvelope target = good;

  auto corrupted = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  corrupted[corrupted.size() / 2] ^= 0x10;
  try {
    target = ddm::unpack_rank_envelope(std::move(corrupted), kColumns);
    FAIL() << "corrupt envelope decoded";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(target.role, good.role);
  EXPECT_EQ(target.generation, good.generation);
  EXPECT_EQ(target.owned.size(), good.owned.size());
  EXPECT_EQ(target.owners, good.owners);
}

}  // namespace
}  // namespace pcmd
