// The one framing/integrity codec. Every CRC-protected byte image in pcmd —
// ddm wire messages, reliable-channel frames, checkpoints and job-journal
// records — is a frame of this layout:
//
//   u32 magic | u32 field[N] | u32 crc | payload,   crc = crc32(field ‖ payload)
//
// seal() writes the header into space the caller reserved at the front of
// the frame (sim::Packer's header bytes) and open() checks it where it
// lies, so framing never copies or shifts a payload: sim::Unpacker starts
// reading at header_bytes(). Words are host order on a little-endian host
// (enforced in frame.cpp), which pins the persisted layouts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace pcmd {

enum class FrameFault : std::uint8_t {
  kNone,
  kShort,     // fewer bytes than the header
  kBadMagic,  // the magic word differs
  kBadField,  // a pinned field word differs from its expected value
  kBadCrc,    // the CRC word does not match fields ‖ payload
};

inline constexpr std::size_t kMaxFrameFields = 2;
using FrameFields = std::array<std::uint32_t, kMaxFrameFields>;
// Expected field values for open(); nullopt accepts any (the CRC still
// covers the word).
using FramePins = std::array<std::optional<std::uint32_t>, kMaxFrameFields>;

// `offset` is where the fault lies, counted from the frame start: the end
// of the available bytes for kShort, else the faulty word. `fields` holds
// the header's field words whenever the header was complete.
struct FrameCheck {
  FrameFault fault = FrameFault::kNone;
  std::size_t offset = 0;
  FrameFields fields{};

  bool ok() const { return fault == FrameFault::kNone; }
};

class FrameCodec {
 public:
  // One name per field word, in header order:
  // FrameCodec(0x52454C41u, "seq", "attempt").
  template <typename... Names>
  constexpr explicit FrameCodec(std::uint32_t magic, Names... field_names)
      : magic_(magic), names_{field_names...}, count_(sizeof...(Names)) {
    static_assert(sizeof...(Names) <= kMaxFrameFields);
  }

  constexpr std::size_t header_bytes() const { return 4 * (count_ + 2); }

  // Writes the header into frame[0, header_bytes()) over the payload
  // frame[header_bytes(), size); size >= header_bytes().
  void seal(std::uint8_t* frame, std::size_t size,
            const FrameFields& fields = {}) const;

  // Checks short, magic, pinned fields, then the CRC. Pinned fields come
  // before the CRC so a frame of another format version names its version
  // field instead of failing as a bad checksum.
  FrameCheck open(const std::uint8_t* frame, std::size_t size,
                  const FramePins& pins = {}) const;

  // The failed check as text naming the field and byte offset, e.g.
  // "version field at byte 4 is 1 (expected 2)".
  std::string describe(const FrameCheck& check,
                       const FramePins& pins = {}) const;

 private:
  std::uint32_t magic_;
  std::array<const char*, kMaxFrameFields> names_;
  std::size_t count_;
};

}  // namespace pcmd
