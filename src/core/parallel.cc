#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace lazyrep::core {

int DefaultJobs() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int jobs, size_t n,
                 const std::function<void(size_t)>& body) {
  if (jobs <= 0) jobs = DefaultJobs();
  const size_t workers = std::min<size_t>(jobs, n);
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::mutex failed_mu;
  std::exception_ptr failed;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&next, &body, n, &failed_mu, &failed] {
      try {
        for (size_t i = next++; i < n; i = next++) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(failed_mu);
        if (!failed) failed = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failed) std::rethrow_exception(failed);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  // boost::hash_combine's mixing feeding the splitmix64 finalizer: the
  // shifted-seed terms keep permuted argument lists from colliding.
  return SplitMix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                            (seed >> 2)));
}

uint64_t HashString(uint64_t seed, const char* s, size_t len) {
  // Length first so "ab"+"c" and "a"+"bc" chunked differently still differ,
  // then 8-byte little-endian words.
  seed = HashCombine(seed, len);
  while (len > 0) {
    uint64_t word = 0;
    size_t take = len < 8 ? len : 8;
    std::memcpy(&word, s, take);
    seed = HashCombine(seed, word);
    s += take;
    len -= take;
  }
  return seed;
}

}  // namespace lazyrep::core
