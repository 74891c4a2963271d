#ifndef LAZYREP_SIM_FRAME_POOL_H_
#define LAZYREP_SIM_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>

// The frame pool recycles coroutine-frame memory through thread-local
// free lists, so the steady-state hot path (a frame per message leg, per
// queued lock request, ...) performs no heap allocation. Pooling is
// disabled under ASan/TSan/MSan: recycled frames would mask use-after-free
// and lose allocation stack traces.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LAZYREP_FRAME_POOL_DISABLED 1
#endif
#if !defined(LAZYREP_FRAME_POOL_DISABLED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define LAZYREP_FRAME_POOL_DISABLED 1
#endif
#endif

namespace lazyrep::sim {

/// Per-thread frame-pool counters, for the perf harness.
struct FramePoolStats {
  uint64_t fresh_allocs = 0;   ///< requests that hit the real allocator
  uint64_t pooled_allocs = 0;  ///< requests served from a free list

  /// Coroutine frames built, with the pool on or off.
  uint64_t frames() const { return fresh_allocs + pooled_allocs; }
};

/// Allocates `bytes` from the calling thread's frame pool. Requests above
/// the pooled size classes fall through to ::operator new.
///
/// A block must be released with FramePoolFree on the SAME thread and with
/// the same size — coroutine frames satisfy both: a simulation (and every
/// frame it spawns) lives and dies on one worker thread, and the compiler
/// passes the frame size to the promise's sized operator delete.
void* FramePoolAlloc(size_t bytes);

/// Returns `ptr` (of size `bytes`) to the calling thread's pool.
void FramePoolFree(void* ptr, size_t bytes) noexcept;

/// Counters for the calling thread.
FramePoolStats FramePoolThreadStats();

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_FRAME_POOL_H_
