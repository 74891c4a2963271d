#ifndef LAZYREP_CORE_PARALLEL_H_
#define LAZYREP_CORE_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace lazyrep::core {

/// Number of worker threads to use when the caller asked for the default
/// (jobs == 0): hardware_concurrency, never less than 1.
int DefaultJobs();

/// Runs body(i) for every i in [0, n) on up to `jobs` threads (0 = default),
/// each claiming the next unclaimed index from one shared counter.
/// Simulations are coarse tasks (seconds each), so the counter is never the
/// bottleneck. With one effective worker the loop runs inline on the calling
/// thread, in index order — byte-identical to a plain for loop. `body` must
/// be safe to call concurrently from distinct threads for distinct indices.
/// An exception `body` throws on a worker (a System too big for memory
/// throws std::bad_alloc) ends that worker and is rethrown here once every
/// worker has joined, the first one if several throw.
void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& body);

/// splitmix64 finalizer (Steele/Lea/Flood). Bijective on uint64_t, so
/// distinct inputs never collide; used to turn structured point identities
/// into well-mixed RNG seeds.
uint64_t SplitMix64(uint64_t x);

/// Folds `value` into a running splitmix64 hash.
uint64_t HashCombine(uint64_t seed, uint64_t value);

/// HashCombines every byte-chunk of a string into `seed`.
uint64_t HashString(uint64_t seed, const char* s, size_t len);

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_PARALLEL_H_
