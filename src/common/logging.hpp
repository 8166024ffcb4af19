// Minimal leveled logger for the framework.
//
// Tools like the Condor flow driver narrate their steps (mirroring the
// console output of the original Python framework); tests set the level to
// kError to stay quiet. Thread-safe: a single mutex serializes sink writes.
#pragma once

#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

namespace condor::log {

enum class Level { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are discarded.
void set_level(Level level) noexcept;
Level level() noexcept;

/// Emits one formatted line ("[LEVEL] tag: message") to stderr if `level`
/// passes the threshold.
void write(Level level, std::string_view tag, std::string_view message);

/// RAII line builder: condor::log::Line(Level::kInfo, "dse") << "explored "
/// << n << " points";  The line is emitted on destruction.
class Line {
 public:
  Line(Level level, std::string_view tag) : level_(level), tag_(tag) {}
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;
  ~Line() { write(level_, tag_, stream_.str()); }

  template <typename T>
  Line& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  Level level_;
  std::string tag_;
  std::ostringstream stream_;
};

/// Lets the CONDOR_LOG_* conditional discard a finished Line: `&` binds
/// looser than `<<`, so it applies after every operand is streamed.
struct Voidify {
  void operator&(const Line&) const noexcept {}
};

}  // namespace condor::log

// A line below the threshold is never built: the level test comes first and
// the `<<` operands are not evaluated. The macro is one expression, so
// `if (c) CONDOR_LOG_INFO(t) << x; else ...` binds its else to `if (c)`.
#define CONDOR_LOG_AT_(lvl, tag)                      \
  (lvl) < ::condor::log::level()                      \
      ? (void)0                                       \
      : ::condor::log::Voidify() & ::condor::log::Line((lvl), (tag))
#define CONDOR_LOG_DEBUG(tag) CONDOR_LOG_AT_(::condor::log::Level::kDebug, tag)
#define CONDOR_LOG_INFO(tag) CONDOR_LOG_AT_(::condor::log::Level::kInfo, tag)
#define CONDOR_LOG_WARN(tag) CONDOR_LOG_AT_(::condor::log::Level::kWarning, tag)
#define CONDOR_LOG_ERROR(tag) CONDOR_LOG_AT_(::condor::log::Level::kError, tag)
