// Unit tests for the common substrate: status/result, strings, RNG,
// byte I/O, CRC, logging, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <vector>

#include "common/byte_io.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace condor {
namespace {

// ---- Status / Result -----------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status status = unsynthesizable("too big");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kUnsynthesizable);
  EXPECT_EQ(status.message(), "too big");
  EXPECT_EQ(status.to_string(), "unsynthesizable: too big");
}

TEST(Status, CodeNames) {
  EXPECT_EQ(to_string(StatusCode::kOk), "ok");
  EXPECT_EQ(to_string(StatusCode::kInvalidInput), "invalid-input");
  EXPECT_EQ(to_string(StatusCode::kNotFound), "not-found");
  EXPECT_EQ(to_string(StatusCode::kUnavailable), "unavailable");
}

TEST(Result, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> result = not_found("nope");
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

Result<int> parse_positive(int x) {
  if (x <= 0) {
    return invalid_input("not positive");
  }
  return x;
}

Status use_macros(int x, int& out) {
  CONDOR_ASSIGN_OR_RETURN(out, parse_positive(x));
  CONDOR_RETURN_IF_ERROR(Status::ok());
  return Status::ok();
}

TEST(Result, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(use_macros(5, out).is_ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(use_macros(-1, out).code(), StatusCode::kInvalidInput);
}

// ---- strings ---------------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(strings::trim("  abc \t\n"), "abc");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("   "), "");
  EXPECT_EQ(strings::trim("x"), "x");
}

TEST(Strings, Split) {
  auto parts = strings::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(strings::split("", ',').size(), 1u);
}

TEST(Strings, Affixes) {
  EXPECT_TRUE(strings::starts_with("condor", "con"));
  EXPECT_FALSE(strings::starts_with("con", "condor"));
  EXPECT_TRUE(strings::ends_with("file.json", ".json"));
  EXPECT_FALSE(strings::ends_with("json", "file.json"));
}

TEST(Strings, FormatAndJoin) {
  EXPECT_EQ(strings::format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::join({}, ","), "");
  EXPECT_EQ(strings::to_lower("AbC9"), "abc9");
  EXPECT_EQ(strings::fixed(3.14159, 2), "3.14");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(strings::human_bytes(512), "512 B");
  EXPECT_EQ(strings::human_bytes(2048), "2.0 KiB");
  EXPECT_EQ(strings::human_bytes(3 * 1024 * 1024), "3.0 MiB");
}

// ---- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.bounded(13), 13u);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, UniformInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const float value = rng.uniform(-2.0F, 3.0F);
    EXPECT_GE(value, -2.0F);
    EXPECT_LT(value, 3.0F);
  }
}

TEST(Rng, NormalHasPlausibleMoments) {
  Rng rng(5);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double value = rng.normal(0.0F, 1.0F);
    sum += value;
    sum_sq += value * value;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kSamples, 1.0, 0.05);
}

// ---- byte I/O ---------------------------------------------------------------

TEST(ByteIo, RoundTripPrimitives) {
  ByteWriter writer;
  writer.u8(0xAB);
  writer.u32le(0xDEADBEEF);
  writer.u64le(0x1122334455667788ULL);
  writer.f32le(3.5F);
  writer.f64le(-1.25);
  writer.string_bytes("hi");

  ByteReader reader(writer.view());
  EXPECT_EQ(reader.u8().value(), 0xAB);
  EXPECT_EQ(reader.u32le().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64le().value(), 0x1122334455667788ULL);
  EXPECT_EQ(reader.f32le().value(), 3.5F);
  EXPECT_EQ(reader.f64le().value(), -1.25);
  EXPECT_EQ(reader.string_bytes(2).value(), "hi");
  EXPECT_TRUE(reader.at_end());
}

TEST(ByteIo, TruncationIsError) {
  ByteWriter writer;
  writer.u8(1);
  ByteReader reader(writer.view());
  EXPECT_TRUE(reader.u32le().status().code() == StatusCode::kInvalidInput);
}

TEST(ByteIo, PatchBackfillsLength) {
  ByteWriter writer;
  writer.u32le(0);
  writer.string_bytes("xyz");
  ASSERT_TRUE(writer.patch_u32le(0, 3).is_ok());
  ByteReader reader(writer.view());
  EXPECT_EQ(reader.u32le().value(), 3u);
  EXPECT_FALSE(writer.patch_u32le(100, 1).is_ok());
}

TEST(ByteIo, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE reference vector).
  const char* text = "123456789";
  const std::uint32_t crc = crc32(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(text), 9));
  EXPECT_EQ(crc, 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

/// The definition: one bit per step, no tables.
std::uint32_t crc32_bitwise(std::span<const std::byte> data) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const std::byte b : data) {
    crc ^= static_cast<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0xEDB88320U : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFU;
}

TEST(ByteIo, Crc32MatchesBitwiseReference) {
  // Every length around the 8-byte stride, at every start alignment.
  Rng rng(31);
  std::vector<std::byte> data(8 + 68);
  for (std::byte& b : data) {
    b = static_cast<std::byte>(rng.bounded(256));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 67; ++length) {
      const auto view = std::span<const std::byte>(data).subspan(offset, length);
      EXPECT_EQ(crc32(view), crc32_bitwise(view))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(ByteIo, FloatSpanMatchesPerValueCodec) {
  const std::vector<float> values = {0.0F, -0.0F, 1.5F, -3.25e-7F, 6.5e30F};
  ByteWriter bulk;
  bulk.f32le_span(values);
  ByteWriter single;
  for (const float value : values) {
    single.f32le(value);
  }
  ASSERT_EQ(bulk.size(), single.size());
  EXPECT_TRUE(std::equal(bulk.view().begin(), bulk.view().end(),
                         single.view().begin()));

  std::vector<float> out(values.size());
  ByteReader reader(bulk.view());
  ASSERT_TRUE(reader.f32le_span(out).is_ok());
  EXPECT_TRUE(reader.at_end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::memcmp(&out[i], &values[i], sizeof(float)), 0) << i;
  }
  ByteReader empty(bulk.view());
  EXPECT_TRUE(empty.f32le_span({}).is_ok());
  EXPECT_EQ(empty.position(), 0U);
}

TEST(ByteIo, FloatSpanCutShortIsError) {
  ByteWriter writer;
  writer.f32le_span(std::vector<float>{1.0F, 2.0F, 3.0F, 4.0F, 5.0F});
  for (std::size_t cut = 1; cut <= 4; ++cut) {
    ByteReader reader(writer.view().first(writer.size() - cut));
    std::vector<float> out(5);
    const Status status = reader.f32le_span(out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidInput) << "cut " << cut;
    EXPECT_EQ(reader.position(), 0U) << "cut " << cut;
  }
}

TEST(ByteIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/condor_byte_io_test.bin";
  ByteWriter writer;
  writer.u64le(77);
  ASSERT_TRUE(write_file(path, writer.view()).is_ok());
  auto data = read_file(path);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().size(), 8u);
  EXPECT_FALSE(read_file(path + ".does-not-exist").is_ok());
}

// ---- logging -----------------------------------------------------------------

/// Restores the global log level when a test ends.
class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(log::level()) {}
  ~LogLevelGuard() { log::set_level(saved_); }
  LogLevelGuard(const LogLevelGuard&) = delete;
  LogLevelGuard& operator=(const LogLevelGuard&) = delete;

 private:
  log::Level saved_;
};

TEST(Logging, OperandsRunOnlyAtOrAboveTheThreshold) {
  const LogLevelGuard guard;
  int evaluations = 0;
  const auto operand = [&evaluations] { return ++evaluations; };
  log::set_level(log::Level::kWarning);
  CONDOR_LOG_DEBUG("test") << operand();
  CONDOR_LOG_INFO("test") << operand() << operand();
  EXPECT_EQ(evaluations, 0);
  CONDOR_LOG_WARN("test") << "at the threshold " << operand();
  EXPECT_EQ(evaluations, 1);
  CONDOR_LOG_ERROR("test") << "above the threshold " << operand();
  EXPECT_EQ(evaluations, 2);
  log::set_level(log::Level::kOff);
  CONDOR_LOG_ERROR("test") << operand();
  EXPECT_EQ(evaluations, 2);
}

TEST(Logging, ElseBindsToTheEnclosingIf) {
  const LogLevelGuard guard;
  for (const log::Level level : {log::Level::kInfo, log::Level::kOff}) {
    log::set_level(level);
    for (const bool condition : {true, false}) {
      bool took_else = false;
      if (condition)
        CONDOR_LOG_INFO("test") << "if branch";
      else
        took_else = true;
      EXPECT_EQ(took_else, !condition);
    }
  }
}

// ---- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

}  // namespace
}  // namespace condor
