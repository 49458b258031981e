//===- support/Parse.h - Strict decimal parsing of flag values --*- C++ -*-===//

#ifndef VELO_SUPPORT_PARSE_H
#define VELO_SUPPORT_PARSE_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace velo {

/// Parse a full decimal uint64 ("--max-events=N"). Rejects empty strings,
/// signs, trailing garbage, and out-of-range values.
inline bool parseU64(const char *S, uint64_t &Out) {
  if (*S == '\0' || *S == '-' || *S == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno != 0 || End == S || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace velo

#endif // VELO_SUPPORT_PARSE_H
