// Byte-buffer encoding/decoding primitives for the apio-h5 on-disk format.
//
// All on-disk integers are little-endian.  ByteWriter grows an owned
// vector; ByteReader walks a read-only span and throws FormatError on
// truncation, so format parsing code never reads out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace apio {

/// Serialises primitive values into a growable little-endian byte vector.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }

  /// Writes a u32 length prefix followed by the raw characters.
  void put_string(std::string_view s);

  /// Appends raw bytes without a length prefix.
  void put_bytes(std::span<const std::byte> bytes);

  std::size_t size() const { return buf_.size(); }
  std::span<const std::byte> view() const { return buf_; }
  std::vector<std::byte> take() && { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(std::byte{static_cast<std::uint8_t>(v >> (8 * i))});
    }
  }

  std::vector<std::byte> buf_;
};

/// Deserialises primitive values from a byte span; throws FormatError on
/// truncated input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t get_u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }
  double get_f64() {
    const std::uint64_t bits = get_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Reads a u32 length prefix followed by the raw characters.
  std::string get_string();

  /// Reads exactly n raw bytes.
  std::span<const std::byte> get_bytes(std::size_t n) { return take(n); }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> take(std::size_t n) {
    if (remaining() < n) {
      throw FormatError("truncated structure: wanted " + std::to_string(n) +
                        " bytes, have " + std::to_string(remaining()));
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  template <typename T>
  T get_le() {
    auto bytes = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(std::to_integer<std::uint8_t>(bytes[i])) << (8 * i)));
    }
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace apio
