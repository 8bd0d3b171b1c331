// Property tests for the ddm wire formats: randomized exact round-trips,
// and clean sim::ProtocolError rejection of truncated, trailing-garbage and
// corrupted-count buffers (never a crash, never a silent wrong answer).
#include "ddm/wire.hpp"

#include "sim/comm.hpp"
#include "util/frame.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace pcmd::ddm {
namespace {

md::ParticleVector random_particles(pcmd::Rng& rng, std::size_t count) {
  md::ParticleVector particles(count);
  for (auto& p : particles) {
    p.id = static_cast<std::int64_t>(rng.next_u64() >> 1);
    p.position = {rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
                  rng.uniform(-50.0, 50.0)};
    p.velocity = {rng.normal(), rng.normal(), rng.normal()};
    p.force = {rng.normal(0.0, 10.0), rng.normal(0.0, 10.0),
               rng.normal(0.0, 10.0)};
  }
  return particles;
}

std::vector<HaloRecord> random_halo(pcmd::Rng& rng, std::size_t count) {
  std::vector<HaloRecord> records(count);
  for (auto& r : records) {
    r.id = static_cast<std::int64_t>(rng.next_u64() >> 1);
    r.position = {rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0),
                  rng.uniform(0.0, 30.0)};
  }
  return records;
}

TEST(WireProperty, DigestRoundTripsExactly) {
  pcmd::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const double busy = rng.uniform(0.0, 1.0e3);
    std::vector<std::int32_t> columns(rng.uniform_index(64));
    for (auto& c : columns) {
      c = static_cast<std::int32_t>(rng.uniform_index(1 << 20));
    }
    double out_busy = -1.0;
    std::vector<std::int32_t> out_columns;
    unpack_digest(pack_digest(busy, columns), out_busy, out_columns);
    ASSERT_EQ(out_busy, busy);  // bitwise: packing is a memcpy
    ASSERT_EQ(out_columns, columns);
  }
}

TEST(WireProperty, ParticlesRoundTripExactly) {
  pcmd::Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const auto particles = random_particles(rng, rng.uniform_index(40));
    const auto out = unpack_particles(pack_particles(particles));
    ASSERT_EQ(out.size(), particles.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].id, particles[i].id);
      ASSERT_EQ(out[i].position, particles[i].position);
      ASSERT_EQ(out[i].velocity, particles[i].velocity);
      ASSERT_EQ(out[i].force, particles[i].force);
    }
  }
}

TEST(WireProperty, HaloRoundTripsExactly) {
  pcmd::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const auto records = random_halo(rng, rng.uniform_index(60));
    const auto out = unpack_halo(pack_halo(records));
    ASSERT_EQ(out.size(), records.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].id, records[i].id);
      ASSERT_EQ(out[i].position, records[i].position);
    }
  }
}

TEST(WireProperty, AnnounceRoundTripsExactly) {
  pcmd::Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    AnnounceRecord record;
    record.target = static_cast<std::int32_t>(rng.uniform_index(1024)) - 1;
    record.column = static_cast<std::int32_t>(rng.uniform_index(1024)) - 1;
    const auto out = unpack_announce(pack_announce(record));
    ASSERT_EQ(out.target, record.target);
    ASSERT_EQ(out.column, record.column);
  }
}

SlabInfo random_slab_info(pcmd::Rng& rng) {
  SlabInfo info;
  info.busy = rng.uniform(0.0, 2.0);
  info.lo = static_cast<std::int32_t>(rng.uniform_index(64));
  info.hi = info.lo + 1 + static_cast<std::int32_t>(rng.uniform_index(8));
  info.low_layer_load = rng.uniform(0.0, 100.0);
  info.high_layer_load = rng.uniform(0.0, 100.0);
  info.total_load = rng.uniform(0.0, 1000.0);
  return info;
}

TEST(WireProperty, SlabInfoRoundTripsExactly) {
  pcmd::Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const SlabInfo info = random_slab_info(rng);
    const SlabInfo out = unpack_slab_info(pack_slab_info(info));
    ASSERT_EQ(out.busy, info.busy);  // bitwise: packing is a memcpy
    ASSERT_EQ(out.lo, info.lo);
    ASSERT_EQ(out.hi, info.hi);
    ASSERT_EQ(out.low_layer_load, info.low_layer_load);
    ASSERT_EQ(out.high_layer_load, info.high_layer_load);
    ASSERT_EQ(out.total_load, info.total_load);
  }
}

TEST(WireProperty, AnnounceBytesArePinned) {
  // Wire bytes are modelled bytes: every header byte is charged to the
  // virtual clock, so the frame layout feeds the makespan goldens. Pin the
  // exact bytes of one message — {magic "PMDW", CRC32(payload)} then the
  // payload — so the layout can never drift silently.
  const sim::Buffer expected = {0x57, 0x44, 0x4d, 0x50, 0x33, 0xe0,
                                0x7a, 0x76, 0x03, 0x00, 0x00, 0x00,
                                0x07, 0x00, 0x00, 0x00};
  EXPECT_EQ(pack_announce(AnnounceRecord{3, 7}), expected);
  EXPECT_EQ(kWireHeaderBytes, 8u);
}

sim::Buffer truncated(const sim::Buffer& original, std::size_t len) {
  return sim::Buffer(original.begin(),
                     original.begin() + static_cast<std::ptrdiff_t>(len));
}

TEST(WireProperty, TruncationAlwaysThrowsProtocolError) {
  pcmd::Rng rng(17);
  const auto digest = pack_digest(1.5, {1, 2, 3, 4});
  for (std::size_t len = 0; len < digest.size(); ++len) {
    double busy;
    std::vector<std::int32_t> columns;
    EXPECT_THROW(unpack_digest(truncated(digest, len), busy, columns),
                 sim::ProtocolError)
        << "digest truncated to " << len;
  }

  const auto particles = pack_particles(random_particles(rng, 3));
  for (std::size_t len = 0; len < particles.size(); ++len) {
    EXPECT_THROW(unpack_particles(truncated(particles, len)),
                 sim::ProtocolError)
        << "particles truncated to " << len;
  }

  const auto halo = pack_halo(random_halo(rng, 5));
  for (std::size_t len = 0; len < halo.size(); ++len) {
    EXPECT_THROW(unpack_halo(truncated(halo, len)), sim::ProtocolError)
        << "halo truncated to " << len;
  }

  const auto announce = pack_announce(AnnounceRecord{2, 9});
  for (std::size_t len = 0; len < announce.size(); ++len) {
    EXPECT_THROW(unpack_announce(truncated(announce, len)), sim::ProtocolError)
        << "announce truncated to " << len;
  }

  const auto info = pack_slab_info(random_slab_info(rng));
  for (std::size_t len = 0; len < info.size(); ++len) {
    EXPECT_THROW(unpack_slab_info(truncated(info, len)), sim::ProtocolError)
        << "slab_info truncated to " << len;
  }
}

// A correctly sealed wire frame around an arbitrary body, so the tests can
// hand the decoders intact frames whose payload is the wrong shape.
sim::Buffer sealed_body(std::size_t body_bytes) {
  constexpr pcmd::FrameCodec kWire(0x504D4457u);  // "PMDW"
  sim::Buffer frame(kWireHeaderBytes + body_bytes, 0x3c);
  kWire.seal(frame.data(), frame.size());
  return frame;
}

TEST(WireProperty, MisshapenSlabInfoBodiesAreProtocolErrors) {
  // Intact frames (the CRC matches) whose body is 12 bytes — too short for
  // the 40-byte record — or carries 5 bytes after it. Both are protocol
  // violations with the message kind in the text, never a std::out_of_range
  // escaping and never a silent accept.
  for (const std::size_t body : {std::size_t{12}, sizeof(SlabInfo) + 5}) {
    try {
      (void)unpack_slab_info(sealed_body(body));
      FAIL() << body << "-byte body decoded as a SlabInfo";
    } catch (const sim::ChecksumError& e) {
      FAIL() << "intact frame reported as corrupted: " << e.what();
    } catch (const sim::ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find("unpack_slab_info"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW((void)unpack_slab_info(sealed_body(sizeof(SlabInfo))));
}

TEST(WireProperty, TrailingBytesThrowProtocolError) {
  pcmd::Rng rng(19);
  for (std::size_t extra = 1; extra <= 9; ++extra) {
    auto buffer = pack_particles(random_particles(rng, 2));
    buffer.resize(buffer.size() + extra, 0xab);
    EXPECT_THROW(unpack_particles(std::move(buffer)), sim::ProtocolError)
        << extra << " trailing bytes";

    auto digest = pack_digest(0.5, {1});
    digest.resize(digest.size() + extra, 0xcd);
    double busy;
    std::vector<std::int32_t> columns;
    EXPECT_THROW(unpack_digest(std::move(digest), busy, columns),
                 sim::ProtocolError);

    auto info = pack_slab_info(random_slab_info(rng));
    info.resize(info.size() + extra, 0xef);
    EXPECT_THROW(unpack_slab_info(std::move(info)), sim::ProtocolError)
        << extra << " trailing bytes";
  }
}

TEST(WireProperty, CorruptedCountThrowsInsteadOfAllocating) {
  // Overwrite the vector length prefix with values up to 2^64 - 1: the
  // huge-count guard must reject them before computing count * sizeof(T),
  // which would overflow and sneak past the bounds check.
  pcmd::Rng rng(23);
  const auto original = pack_particles(random_particles(rng, 4));
  for (const std::uint64_t count :
       {std::uint64_t{5}, std::uint64_t{1} << 32, std::uint64_t{1} << 61,
        ~std::uint64_t{0}, ~std::uint64_t{0} / sizeof(md::Particle) + 1}) {
    auto corrupted = original;
    std::memcpy(corrupted.data(), &count, sizeof(count));
    EXPECT_THROW(unpack_particles(std::move(corrupted)), sim::ProtocolError)
        << "count " << count;
  }
}

TEST(WireProperty, EverySingleByteFlipIsDetectedAsCorruption) {
  // Corruption must be a *distinct* error from truncation: flipping any one
  // byte of a sealed message — header or payload — trips the CRC32 (or the
  // magic) and throws sim::ChecksumError, never a silent wrong answer and
  // never a plain out-of-range.
  pcmd::Rng rng(31);
  const auto sealed = pack_particles(random_particles(rng, 3));
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
      auto corrupted = sealed;
      corrupted[byte] ^= mask;
      EXPECT_THROW(unpack_particles(std::move(corrupted)), sim::ChecksumError)
          << "byte " << byte << " mask " << int(mask);
    }
  }

  const auto halo = pack_halo(random_halo(rng, 4));
  for (std::size_t byte = 0; byte < halo.size(); ++byte) {
    auto corrupted = halo;
    corrupted[byte] ^= 0x40;
    EXPECT_THROW(unpack_halo(std::move(corrupted)), sim::ChecksumError)
        << "byte " << byte;
  }

  const auto info = pack_slab_info(random_slab_info(rng));
  for (std::size_t byte = 0; byte < info.size(); ++byte) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
      auto corrupted = info;
      corrupted[byte] ^= mask;
      EXPECT_THROW(unpack_slab_info(std::move(corrupted)), sim::ChecksumError)
          << "byte " << byte << " mask " << int(mask);
    }
  }
}

TEST(WireProperty, ChecksumErrorIsAProtocolError) {
  // Callers that only care about "bad message" may catch ProtocolError;
  // callers distinguishing "bad link" from "bad code" catch ChecksumError
  // first. The type hierarchy must support both.
  pcmd::Rng rng(37);
  auto corrupted = pack_particles(random_particles(rng, 2));
  corrupted[corrupted.size() - 1] ^= 0x10;
  EXPECT_THROW(unpack_particles(std::move(corrupted)), sim::ProtocolError);
}

TEST(WireProperty, RandomGarbageNeverCrashes) {
  pcmd::Rng rng(29);
  for (int trial = 0; trial < 500; ++trial) {
    sim::Buffer garbage(rng.uniform_index(128));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
    }
    // Any outcome is fine except a crash or a non-ProtocolError exception.
    try {
      (void)unpack_particles(garbage);
    } catch (const sim::ProtocolError&) {
    }
    try {
      (void)unpack_halo(garbage);
    } catch (const sim::ProtocolError&) {
    }
    try {
      double busy;
      std::vector<std::int32_t> columns;
      unpack_digest(garbage, busy, columns);
    } catch (const sim::ProtocolError&) {
    }
    try {
      (void)unpack_slab_info(garbage);
    } catch (const sim::ProtocolError&) {
    }
  }
}

}  // namespace
}  // namespace pcmd::ddm
