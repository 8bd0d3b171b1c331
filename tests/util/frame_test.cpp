// Battery for the one frame codec (util/frame.hpp) that every CRC-protected
// byte image in pcmd goes through: round trips with 0 and 2 field words and
// empty payloads, the exact header layout, truncation at every byte, every
// single-bit flip in header and payload, a foreign magic, and the byte
// offset each fault reports. The per-format batteries (wire, checkpoint,
// journal) keep their own sweeps on top of this.
#include "util/frame.hpp"

#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace pcmd {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr FrameCodec kBare(0x54455354u);                  // "TEST", no fields
constexpr FrameCodec kPair(0x50414952u, "seq", "attempt");  // "PAIR"

Bytes payload_of(std::size_t size) {
  Bytes payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>(0x11 * i + 3);
  }
  return payload;
}

Bytes sealed(const FrameCodec& codec, const Bytes& payload,
             const FrameFields& fields = {}) {
  Bytes frame(codec.header_bytes());
  frame.insert(frame.end(), payload.begin(), payload.end());
  codec.seal(frame.data(), frame.size(), fields);
  return frame;
}

std::uint32_t word_at(const Bytes& frame, std::size_t offset) {
  std::uint32_t v;
  std::memcpy(&v, frame.data() + offset, sizeof(v));
  return v;
}

TEST(Frame, HeaderSizesFollowTheFieldCount) {
  static_assert(kBare.header_bytes() == 8);
  static_assert(kPair.header_bytes() == 16);
}

TEST(Frame, RoundTripsWithAndWithoutFieldsAndEmptyPayloads) {
  for (const std::size_t size : {0u, 1u, 7u, 64u}) {
    const Bytes payload = payload_of(size);

    const Bytes bare = sealed(kBare, payload);
    const FrameCheck bare_check = kBare.open(bare.data(), bare.size());
    EXPECT_TRUE(bare_check.ok()) << "payload " << size;
    EXPECT_EQ(Bytes(bare.begin() + 8, bare.end()), payload);

    const Bytes pair = sealed(kPair, payload, {41, 0xfffffffeu});
    const FrameCheck pair_check = kPair.open(pair.data(), pair.size());
    ASSERT_TRUE(pair_check.ok()) << "payload " << size;
    EXPECT_EQ(pair_check.fields[0], 41u);
    EXPECT_EQ(pair_check.fields[1], 0xfffffffeu);
    EXPECT_EQ(Bytes(pair.begin() + 16, pair.end()), payload);
    EXPECT_TRUE(kPair.open(pair.data(), pair.size(), {41, 0xfffffffeu}).ok());
  }
}

TEST(Frame, LayoutIsMagicFieldsCrcPayload) {
  const Bytes payload = payload_of(9);
  const Bytes frame = sealed(kPair, payload, {5, 6});
  EXPECT_EQ(word_at(frame, 0), 0x50414952u);
  EXPECT_EQ(word_at(frame, 4), 5u);
  EXPECT_EQ(word_at(frame, 8), 6u);
  // crc = crc32(fields ‖ payload) as one stream.
  Bytes covered(frame.begin() + 4, frame.begin() + 12);
  covered.insert(covered.end(), payload.begin(), payload.end());
  EXPECT_EQ(word_at(frame, 12), crc32(covered.data(), covered.size()));

  // With no fields the CRC is the payload's own CRC32.
  const Bytes bare = sealed(kBare, payload);
  EXPECT_EQ(word_at(bare, 4), crc32(payload.data(), payload.size()));
}

TEST(Frame, TruncationAtEveryByteIsReportedWithItsOffset) {
  const Bytes frame = sealed(kPair, payload_of(11), {1, 2});
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const FrameCheck check = kPair.open(frame.data(), len);
    ASSERT_FALSE(check.ok()) << "length " << len;
    if (len < kPair.header_bytes()) {
      EXPECT_EQ(check.fault, FrameFault::kShort) << "length " << len;
      EXPECT_EQ(check.offset, len);
    } else {
      // A complete header over a cut payload: the CRC no longer matches.
      EXPECT_EQ(check.fault, FrameFault::kBadCrc) << "length " << len;
      EXPECT_EQ(check.offset, 12u);
    }
  }
}

TEST(Frame, EverySingleBitFlipIsCaughtAndLocated) {
  for (const FrameCodec* codec : {&kBare, &kPair}) {
    const std::size_t header = codec->header_bytes();
    const Bytes frame = sealed(*codec, payload_of(13), {7, 8});
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes flipped = frame;
        flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
        const FrameCheck check = codec->open(flipped.data(), flipped.size());
        ASSERT_FALSE(check.ok()) << "byte " << byte << " bit " << bit;
        if (byte < 4) {
          EXPECT_EQ(check.fault, FrameFault::kBadMagic);
          EXPECT_EQ(check.offset, 0u);
        } else {
          // Unpinned fields, the CRC word and the payload are all covered
          // by the CRC.
          EXPECT_EQ(check.fault, FrameFault::kBadCrc)
              << "byte " << byte << " bit " << bit;
          EXPECT_EQ(check.offset, header - 4);
        }
      }
    }
  }
}

TEST(Frame, PinnedFieldIsCheckedBeforeTheCrcAndNamed) {
  const Bytes frame = sealed(kPair, payload_of(4), {1, 9});
  const FramePins pins = {2, std::nullopt};
  const FrameCheck check = kPair.open(frame.data(), frame.size(), pins);
  EXPECT_EQ(check.fault, FrameFault::kBadField);
  EXPECT_EQ(check.offset, 4u);
  EXPECT_EQ(check.fields[0], 1u);
  EXPECT_EQ(kPair.describe(check, pins), "seq field at byte 4 is 1 (expected 2)");

  // A bit flip inside a pinned field is a bad field, not a bad CRC.
  Bytes flipped = sealed(kPair, payload_of(4), {1, 9});
  flipped[9] ^= 0x01;  // field 1 at byte 8
  const FrameCheck second =
      kPair.open(flipped.data(), flipped.size(), {1, 9});
  EXPECT_EQ(second.fault, FrameFault::kBadField);
  EXPECT_EQ(second.offset, 8u);
  EXPECT_EQ(second.fields[1], 9u + 256u);
}

TEST(Frame, ForeignMagicIsABadMagic) {
  constexpr FrameCodec other(0x4f544852u, "a", "b");  // "OTHR", same shape
  const Bytes frame = sealed(other, payload_of(6), {1, 2});
  const FrameCheck check = kPair.open(frame.data(), frame.size());
  EXPECT_EQ(check.fault, FrameFault::kBadMagic);
  EXPECT_EQ(check.offset, 0u);
  EXPECT_EQ(kPair.describe(check), "bad magic at byte 0");
}

TEST(Frame, EachFaultDescribesItsOffset) {
  const Bytes frame = sealed(kPair, payload_of(3), {1, 2});
  EXPECT_EQ(kPair.describe(kPair.open(frame.data(), 5)),
            "truncated at byte 5 (the header needs 16)");
  Bytes bad_crc = frame;
  bad_crc.back() ^= 0x80;
  EXPECT_EQ(kPair.describe(kPair.open(bad_crc.data(), bad_crc.size())),
            "checksum mismatch (crc field at byte 12)");
  EXPECT_EQ(kBare.describe(kBare.open(frame.data(), 0)),
            "truncated at byte 0 (the header needs 8)");
}

}  // namespace
}  // namespace pcmd
