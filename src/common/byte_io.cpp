#include "common/byte_io.hpp"

#include <array>
#include <bit>
#include <cstdio>

#include "common/strings.hpp"

namespace condor {

Status ByteWriter::patch(std::size_t offset, std::uint64_t value,
                         std::size_t width) {
  if (offset > buffer_.size() || buffer_.size() - offset < width) {
    return internal_error("patch out of range");
  }
  for (std::size_t i = 0; i < width; ++i) {
    buffer_[offset + i] = std::byte{static_cast<std::uint8_t>(value >> (8 * i))};
  }
  return Status::ok();
}

void ByteWriter::f32le_span(std::span<const float> values) {
  if constexpr (std::endian::native == std::endian::little) {
    const std::span<const std::byte> raw = std::as_bytes(values);
    buffer_.insert(buffer_.end(), raw.begin(), raw.end());
  } else {
    for (const float value : values) {
      f32le(value);
    }
  }
}

Result<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) {
    return invalid_input("byte stream truncated (u8)");
  }
  return static_cast<std::uint8_t>(data_[pos_++]);
}

Result<std::uint32_t> ByteReader::u32le() {
  if (remaining() < 4) {
    return invalid_input("byte stream truncated (u32)");
  }
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
  }
  pos_ += 4;
  return value;
}

Result<std::uint64_t> ByteReader::u64le() {
  if (remaining() < 8) {
    return invalid_input("byte stream truncated (u64)");
  }
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  return value;
}

Result<float> ByteReader::f32le() {
  CONDOR_ASSIGN_OR_RETURN(std::uint32_t bits, u32le());
  float value = 0.0F;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<double> ByteReader::f64le() {
  CONDOR_ASSIGN_OR_RETURN(std::uint64_t bits, u64le());
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Status ByteReader::f32le_span(std::span<float> out) {
  if (out.size() > remaining() / sizeof(float)) {
    return invalid_input("byte stream truncated (f32 span)");
  }
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) {
      std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
    }
    pos_ += out.size_bytes();
  } else {
    for (float& value : out) {
      value = f32le().value();
    }
  }
  return Status::ok();
}

Result<std::span<const std::byte>> ByteReader::bytes(std::size_t size) {
  if (remaining() < size) {
    return invalid_input("byte stream truncated (bytes)");
  }
  auto view = data_.subspan(pos_, size);
  pos_ += size;
  return view;
}

Result<std::string> ByteReader::string_bytes(std::size_t size) {
  CONDOR_ASSIGN_OR_RETURN(auto view, bytes(size));
  return std::string(reinterpret_cast<const char*>(view.data()), view.size());
}

Status ByteReader::skip(std::size_t size) {
  if (remaining() < size) {
    return invalid_input("byte stream truncated (skip)");
  }
  pos_ += size;
  return Status::ok();
}

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table
/// of the reflected polynomial 0xEDB88320; kCrcTables[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight table lookups fold eight input
/// bytes at once and give the same value as eight single-byte steps.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0xEDB88320U : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFU];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_u32le(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFU;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_u32le(p) ^ crc;
    const std::uint32_t hi = load_u32le(p + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
          t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
          t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<std::uint32_t>(*p)) & 0xFFU];
  }
  return crc ^ 0xFFFFFFFFU;
}

Status write_file(const std::string& path, std::span<const std::byte> data) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return not_found("cannot open for writing: " + path);
  }
  const std::size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), file);
  std::fclose(file);
  if (written != data.size()) {
    return internal_error("short write: " + path);
  }
  return Status::ok();
}

Result<std::vector<std::byte>> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return not_found("cannot open for reading: " + path);
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::vector<std::byte> data(size > 0 ? static_cast<std::size_t>(size) : 0);
  const std::size_t read = data.empty() ? 0 : std::fread(data.data(), 1, data.size(), file);
  std::fclose(file);
  if (read != data.size()) {
    return internal_error("short read: " + path);
  }
  return data;
}

Status write_text_file(const std::string& path, std::string_view text) {
  return write_file(path, std::span<const std::byte>(
                              reinterpret_cast<const std::byte*>(text.data()), text.size()));
}

Result<std::string> read_text_file(const std::string& path) {
  CONDOR_ASSIGN_OR_RETURN(auto data, read_file(path));
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

}  // namespace condor
