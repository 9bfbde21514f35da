// Lightweight invariant checking for library code.
//
// Tests use gtest assertions; library code uses PARDSM_CHECK for conditions
// that indicate a programming error by the caller or a broken internal
// invariant.  Violations throw std::logic_error so the simulators and the
// sockets root fail loudly and testably.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace pardsm::detail {

[[noreturn]] inline void check_fail(const char* cond, const char* file,
                                    int line, const std::string& msg) {
  std::ostringstream os;
  os << "PARDSM_CHECK failed: " << cond << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}

}  // namespace pardsm::detail

#define PARDSM_CHECK(cond, msg)                                         \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::pardsm::detail::check_fail(#cond, __FILE__, __LINE__, (msg));   \
    }                                                                   \
  } while (false)

// Debug-only invariant: compiled out under NDEBUG so hot paths (release
// benches) pay nothing, active in the default and sanitizer builds where
// the test suite runs.
#ifndef NDEBUG
#define PARDSM_DCHECK(cond, msg) PARDSM_CHECK(cond, msg)
#else
#define PARDSM_DCHECK(cond, msg) \
  do {                           \
    (void)sizeof(cond);          \
  } while (false)
#endif
