#include "util/frame.hpp"

#include "util/checksum.hpp"

#include <bit>
#include <cstring>

namespace pcmd {

static_assert(std::endian::native == std::endian::little,
              "frame words are host order; the persisted checkpoint and "
              "journal layouts assume a little-endian host");

namespace {

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void write_u32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

void FrameCodec::seal(std::uint8_t* frame, std::size_t size,
                      const FrameFields& fields) const {
  const std::size_t header = header_bytes();
  write_u32(frame, magic_);
  for (std::size_t i = 0; i < count_; ++i) {
    write_u32(frame + 4 + 4 * i, fields[i]);
  }
  const std::uint32_t crc = crc32(frame + 4, 4 * count_);
  write_u32(frame + header - 4, crc32(frame + header, size - header, crc));
}

FrameCheck FrameCodec::open(const std::uint8_t* frame, std::size_t size,
                            const FramePins& pins) const {
  FrameCheck check;
  const std::size_t header = header_bytes();
  const auto fail = [&](FrameFault fault, std::size_t offset) {
    check.fault = fault;
    check.offset = offset;
    return check;
  };
  if (size < header) return fail(FrameFault::kShort, size);
  for (std::size_t i = 0; i < count_; ++i) {
    check.fields[i] = read_u32(frame + 4 + 4 * i);
  }
  if (read_u32(frame) != magic_) return fail(FrameFault::kBadMagic, 0);
  for (std::size_t i = 0; i < count_; ++i) {
    if (pins[i] && *pins[i] != check.fields[i]) {
      return fail(FrameFault::kBadField, 4 + 4 * i);
    }
  }
  const std::uint32_t crc = crc32(frame + 4, 4 * count_);
  if (crc32(frame + header, size - header, crc) !=
      read_u32(frame + header - 4)) {
    return fail(FrameFault::kBadCrc, header - 4);
  }
  return check;
}

std::string FrameCodec::describe(const FrameCheck& check,
                                 const FramePins& pins) const {
  const std::string at = " at byte " + std::to_string(check.offset);
  switch (check.fault) {
    case FrameFault::kNone:
      return "frame intact";
    case FrameFault::kShort:
      return "truncated" + at + " (the header needs " +
             std::to_string(header_bytes()) + ")";
    case FrameFault::kBadMagic:
      return "bad magic" + at;
    case FrameFault::kBadField: {
      const std::size_t i = (check.offset - 4) / 4;
      std::string text = std::string(names_[i]) + " field" + at + " is " +
                         std::to_string(check.fields[i]);
      if (pins[i]) text += " (expected " + std::to_string(*pins[i]) + ")";
      return text;
    }
    case FrameFault::kBadCrc:
      return "checksum mismatch (crc field" + at + ")";
  }
  return "?";
}

}  // namespace pcmd
