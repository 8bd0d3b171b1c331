// Seeded violation: loaded as src/ddm/hand_rolled_crc.cpp; CRC-protected
// bytes must be framed with util/frame.hpp's FrameCodec, never by calling
// crc32( directly outside src/util.
#include "util/checksum.hpp"

#include <cstdint>
#include <vector>

namespace pcmd::ddm {

std::uint32_t fixture_seal(const std::vector<std::uint8_t>& body) {
  return pcmd::crc32(body.data(), body.size());  // line 12: crc32(
}

bool fixture_check(const std::vector<std::uint8_t>& body, std::uint32_t crc) {
  const std::uint32_t seed = crc32(body.data(), 4);  // line 16: crc32(
  return crc == seed;
}

struct NotACall {
  std::uint32_t crc32 = 0;  // a member named crc32 is not a call
};

}  // namespace pcmd::ddm
