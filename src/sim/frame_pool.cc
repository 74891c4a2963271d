#include "sim/frame_pool.h"

#include <new>

namespace lazyrep::sim {

#if defined(LAZYREP_FRAME_POOL_DISABLED)

namespace {
thread_local FramePoolStats tls_stats;
}  // namespace

// Every frame comes from the real allocator, so every one counts as fresh:
// frame counts read the same with the pool on or off.
void* FramePoolAlloc(size_t bytes) {
  ++tls_stats.fresh_allocs;
  return ::operator new(bytes);
}
void FramePoolFree(void* ptr, size_t bytes) noexcept {
  (void)bytes;
  ::operator delete(ptr);
}
FramePoolStats FramePoolThreadStats() { return tls_stats; }

#else

namespace {

/// Size-class granularity and the largest pooled request. Coroutine frames
/// in this codebase are a few hundred bytes; anything larger is rare enough
/// to pay the real allocator.
constexpr size_t kGranularity = 64;
constexpr size_t kMaxPooledBytes = 4096;
constexpr size_t kNumBuckets = kMaxPooledBytes / kGranularity;

struct FreeBlock {
  FreeBlock* next;
};

struct ThreadCache {
  FreeBlock* buckets[kNumBuckets] = {};
  FramePoolStats stats;

  ~ThreadCache() {
    for (FreeBlock* head : buckets) {
      while (head != nullptr) {
        FreeBlock* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  }
};

thread_local ThreadCache tls_cache;

size_t BucketOf(size_t bytes) { return (bytes - 1) / kGranularity; }

}  // namespace

void* FramePoolAlloc(size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooledBytes) return ::operator new(bytes);
  ThreadCache& cache = tls_cache;
  size_t bucket = BucketOf(bytes);
  if (FreeBlock* head = cache.buckets[bucket]) {
    cache.buckets[bucket] = head->next;
    ++cache.stats.pooled_allocs;
    return head;
  }
  ++cache.stats.fresh_allocs;
  return ::operator new((bucket + 1) * kGranularity);
}

void FramePoolFree(void* ptr, size_t bytes) noexcept {
  if (ptr == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooledBytes) {
    ::operator delete(ptr);
    return;
  }
  ThreadCache& cache = tls_cache;
  size_t bucket = BucketOf(bytes);
  FreeBlock* block = static_cast<FreeBlock*>(ptr);
  block->next = cache.buckets[bucket];
  cache.buckets[bucket] = block;
}

FramePoolStats FramePoolThreadStats() { return tls_cache.stats; }

#endif  // LAZYREP_FRAME_POOL_DISABLED

}  // namespace lazyrep::sim
