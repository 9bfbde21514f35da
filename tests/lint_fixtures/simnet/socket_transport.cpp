// pardsm_lint fixture: the wall-clock roots allowlist.  This file's
// layer/stem pair (simnet/socket_transport) is a real-time transport root,
// so R1 must stay quiet even though it reads the host clock.
#include <chrono>

namespace fixture {

long wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace fixture
