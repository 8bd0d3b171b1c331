// Typed message payloads. MPI-style: the sender packs trivially copyable
// values into a byte buffer; the receiver unpacks them in the same order.
// Pack/unpack is bounds-checked so protocol mismatches fail loudly instead
// of reading garbage.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace pcmd::sim {

using Buffer = std::vector<std::uint8_t>;

class Packer {
 public:
  // Starts the buffer with `header_bytes` zero bytes, reserved for a
  // util/frame.hpp header sealed in place once the payload is complete;
  // `payload_bytes` pre-sizes the rest, as reserve() does.
  explicit Packer(std::size_t header_bytes = 0, std::size_t payload_bytes = 0) {
    buffer_.reserve(header_bytes + payload_bytes);
    buffer_.resize(header_bytes);
  }

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Packer::put requires a trivially copyable type");
    const auto offset = buffer_.size();
    buffer_.resize(offset + sizeof(T));
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  template <typename T>
  void put_vector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Packer::put_vector requires a trivially copyable type");
    put<std::uint64_t>(values.size());
    const auto offset = buffer_.size();
    buffer_.resize(offset + values.size() * sizeof(T));
    if (!values.empty()) {
      std::memcpy(buffer_.data() + offset, values.data(),
                  values.size() * sizeof(T));
    }
  }

  // Length-prefixed (u64) bytes.
  void put_string(const std::string& text) {
    put<std::uint64_t>(text.size());
    buffer_.insert(buffer_.end(), text.begin(), text.end());
  }

  // Pre-sizes the underlying buffer. Hot per-step packers (halo, digest,
  // particle migration) know their exact payload size up front; reserving
  // once replaces the geometric-growth reallocations of repeated put().
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  Buffer take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  Buffer buffer_;
};

class Unpacker {
 public:
  // Owns the buffer: accepting by value lets callers hand over the result of
  // Comm::recv directly without lifetime pitfalls. Reading starts at
  // `offset` — the header size of a framed payload.
  explicit Unpacker(Buffer buffer, std::size_t offset = 0)
      : owned_(std::move(buffer)), data_(owned_.data()), size_(owned_.size()) {
    require(offset);
    cursor_ = offset;
  }

  // Reads [data, data + size) in place, for a frame inside a larger image;
  // the bytes must outlive the Unpacker.
  Unpacker(const std::uint8_t* data, std::size_t size, std::size_t offset)
      : data_(data), size_(size) {
    require(offset);
    cursor_ = offset;
  }

  Unpacker(const Unpacker&) = delete;
  Unpacker& operator=(const Unpacker&) = delete;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Unpacker::get requires a trivially copyable type");
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Unpacker::get_vector requires a trivially copyable type");
    const auto count = get<std::uint64_t>();
    // Check the element count against the remaining bytes *before* the
    // multiply: a corrupted count near 2^64 would overflow count * sizeof(T)
    // and sail past require() into a huge allocation.
    if (count > remaining() / sizeof(T)) {
      throw std::out_of_range("Unpacker: vector count " +
                              std::to_string(count) + " exceeds the " +
                              std::to_string(remaining()) + " bytes left");
    }
    require(count * sizeof(T));
    std::vector<T> values(count);
    if (count > 0) {
      std::memcpy(values.data(), data_ + cursor_, count * sizeof(T));
    }
    cursor_ += count * sizeof(T);
    return values;
  }

  std::string get_string() {
    const auto chars = get_vector<char>();
    return std::string(chars.begin(), chars.end());
  }

  bool exhausted() const { return cursor_ == size_; }
  std::size_t remaining() const { return size_ - cursor_; }

 private:
  void require(std::size_t bytes) const {
    if (bytes > remaining()) {
      throw std::out_of_range("Unpacker: buffer underflow (need " +
                              std::to_string(bytes) + " bytes, have " +
                              std::to_string(remaining()) + ")");
    }
  }

  Buffer owned_;
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

// Decodes with `body(Unpacker&)`, which must consume every byte; the
// unpacker starts past a checked frame header. A short or misshapen payload
// (Unpacker's std::out_of_range) and trailing bytes throw the layer's own
// Error, prefixed with `what`; errors `body` throws pass through.
template <typename Error, typename Body>
auto checked_decode(const char* what, Unpacker unpacker, Body&& body) {
  try {
    auto value = body(unpacker);
    if (!unpacker.exhausted()) {
      throw Error(std::string(what) + ": " +
                  std::to_string(unpacker.remaining()) +
                  " trailing bytes after the payload");
    }
    return value;
  } catch (const std::out_of_range& e) {
    throw Error(std::string(what) + ": malformed payload: " + e.what());
  }
}

// An in-flight message. `arrival` is the virtual time at which the payload is
// available at the destination; `phase` is the BSP phase it was sent in.
struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;
  int phase = -1;
  double arrival = 0.0;
  Buffer payload;
};

}  // namespace pcmd::sim
