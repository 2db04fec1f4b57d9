#ifndef HYGRAPH_COMMON_THREAD_POOL_H_
#define HYGRAPH_COMMON_THREAD_POOL_H_

#include <cstddef>

namespace hygraph {

/// Compatibility stub: hypertable reads run serially on the calling
/// thread, and no worker pool exists. perfbench/hgbench.cc still includes
/// this header and prints `worker_count() + 1` as its fan-out thread
/// count; the next change to the benchmark deletes that print, and this
/// header with it. Header-only; it starts no thread.
class ThreadPool {
 public:
  static ThreadPool* Instance() {
    static ThreadPool pool;
    return &pool;
  }

  /// Always 0: there are no helper threads.
  size_t worker_count() const { return 0; }
};

}  // namespace hygraph

#endif  // HYGRAPH_COMMON_THREAD_POOL_H_
