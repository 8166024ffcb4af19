// Byte-buffer reader/writer used by the binary codecs (protobuf wire format,
// caffemodel fixtures, weight files, the xclbin-like artifact container).
//
// All multi-byte integers are little-endian on the wire, matching both the
// protobuf fixed-width encoding and the Xilinx container conventions.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace condor {

/// Append-only byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t value) { buffer_.push_back(std::byte{value}); }

  void u32le(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      u8(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  void u64le(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      u8(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  void f32le(float value) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    u32le(bits);
  }

  void f64le(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    u64le(bits);
  }

  /// Appends `values` as consecutive f32le words, in one copy on a
  /// little-endian host.
  void f32le_span(std::span<const float> values);

  void bytes(std::span<const std::byte> data) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }

  void bytes(const void* data, std::size_t size) {
    const auto* begin = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), begin, begin + size);
  }

  void string_bytes(std::string_view text) { bytes(text.data(), text.size()); }

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::span<const std::byte> view() const noexcept { return buffer_; }
  [[nodiscard]] std::vector<std::byte> take() && { return std::move(buffer_); }

  /// Overwrite 4 / 8 bytes at `offset` (for back-patching section sizes
  /// and checksums).
  Status patch_u32le(std::size_t offset, std::uint32_t value) {
    return patch(offset, value, 4);
  }
  Status patch_u64le(std::size_t offset, std::uint64_t value) {
    return patch(offset, value, 8);
  }

 private:
  Status patch(std::size_t offset, std::uint64_t value, std::size_t width);

  std::vector<std::byte> buffer_;
};

/// Bounds-checked sequential reader over a byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

  Result<std::uint8_t> u8();
  Result<std::uint32_t> u32le();
  Result<std::uint64_t> u64le();
  Result<float> f32le();
  Result<double> f64le();

  /// Fills `out` from the next out.size() f32le words, checking the byte
  /// count once; on error nothing is consumed.
  Status f32le_span(std::span<float> out);

  /// Returns a view over the next `size` bytes and advances.
  Result<std::span<const std::byte>> bytes(std::size_t size);

  /// Reads `size` bytes into an owned string (for names/labels).
  Result<std::string> string_bytes(std::size_t size);

  /// Skips `size` bytes.
  Status skip(std::size_t size);

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected) used to checksum artifact sections;
/// slicing-by-8, eight bytes per step.
std::uint32_t crc32(std::span<const std::byte> data) noexcept;

/// Whole-file helpers (binary).
Status write_file(const std::string& path, std::span<const std::byte> data);
Result<std::vector<std::byte>> read_file(const std::string& path);
Status write_text_file(const std::string& path, std::string_view text);
Result<std::string> read_text_file(const std::string& path);

}  // namespace condor
