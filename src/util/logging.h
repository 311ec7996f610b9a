#ifndef AUTOCE_UTIL_LOGGING_H_
#define AUTOCE_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace autoce {

/// \brief Severity levels for the lightweight logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Minimum severity that is emitted.
inline constexpr LogLevel kMinLogLevel = LogLevel::kInfo;

namespace internal {

/// Stream-style log sink; emits on destruction. Not for direct use — go
/// through the AUTOCE_LOG macro.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace autoce

#define AUTOCE_LOG(level)                                             \
  if (::autoce::LogLevel::k##level >= ::autoce::kMinLogLevel)         \
  ::autoce::internal::LogMessage(::autoce::LogLevel::k##level,        \
                                 __FILE__, __LINE__)                  \
      .stream()

/// Fatal-on-false invariant check, active in all build types. Used for
/// programming-error preconditions (as opposed to Status for data errors).
#define AUTOCE_CHECK(cond)                                                  \
  do {                                                                      \
    if (!(cond)) {                                                          \
      AUTOCE_LOG(Error) << "Check failed: " #cond;                          \
      std::abort();                                                         \
    }                                                                       \
  } while (false)

#endif  // AUTOCE_UTIL_LOGGING_H_
