#include "jpm/util/parallel.h"

#include <cstdlib>
#include <thread>

namespace jpm::util {

unsigned default_thread_count() {
  if (const char* v = std::getenv("JPM_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end != v && n >= 1) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace jpm::util
