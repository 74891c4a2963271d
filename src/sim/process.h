#ifndef LAZYREP_SIM_PROCESS_H_
#define LAZYREP_SIM_PROCESS_H_

#include <coroutine>
#include <cstdlib>
#include <optional>
#include <utility>

#include "sim/check.h"
#include "sim/frame_pool.h"

namespace lazyrep::sim {

/// Mixin giving a coroutine promise pooled frame storage: frames are
/// recycled through the thread-local frame pool instead of hitting the heap
/// per spawn/await. The compiler passes the frame size to the sized delete,
/// which is what lets the pool bucket blocks without a header.
struct PooledFrame {
  static void* operator new(size_t bytes) { return FramePoolAlloc(bytes); }
  static void operator delete(void* ptr, size_t bytes) noexcept {
    FramePoolFree(ptr, bytes);
  }
};

/// Return type for top-level, detached simulation processes.
///
/// A Process coroutine is started with Simulation::Spawn. It owns its own
/// lifetime: the coroutine frame self-destroys when the body finishes.
/// The Process return object is just a transfer token; it carries the handle
/// from the coroutine factory to Spawn and is not otherwise usable.
class Process {
 public:
  struct promise_type : PooledFrame {
    Process get_return_object() {
      return Process(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    // Processes start suspended; Simulation::Spawn schedules the first resume.
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // Detached: the frame is destroyed as the last act of the coroutine.
        h.destroy();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::abort(); }
  };

  Process(Process&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process& operator=(Process&&) = delete;

  ~Process() {
    // A Process that was never spawned would leak its frame; treat as a bug.
    LAZYREP_CHECK_MSG(handle_ == nullptr, "Process discarded without Spawn");
  }

 private:
  friend class Simulation;
  explicit Process(std::coroutine_handle<> handle) : handle_(handle) {}

  std::coroutine_handle<> Release() { return std::exchange(handle_, nullptr); }

  std::coroutine_handle<> handle_;
};

/// What every Task promise shares: the body starts when the task is
/// awaited, and when it finishes control transfers symmetrically back to the
/// awaiter.
struct TaskPromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      std::coroutine_handle<> cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { std::abort(); }
};

/// Awaitable subroutine coroutine, composable with co_await.
///
/// Task<T> is lazy: the body does not run until the task is awaited. When the
/// body finishes, control transfers symmetrically back to the awaiter. The
/// Task object owns the coroutine frame.
///
/// Tasks are the building block for protocol logic: a simulation process
/// (Process) awaits Task-returning helpers such as "send a message and wait
/// for the reply", which themselves await kernel awaitables (delays,
/// facilities, conditions).
///
/// The kernel's leaf waits return Task<WaitStatus> (sim/condition.h), which
/// has two more forms with no frame of their own: a wait already resolved
/// at the call (a buffer hit, an immediate lock grant, a rejection) and a
/// facility request parked inside the Task itself. A resolved wait does its
/// side effects at the call, so a kernel wait is awaited in the expression
/// that makes it.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : TaskPromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;  // symmetric transfer into the task body
  }
  T await_resume() {
    LAZYREP_CHECK(handle_.promise().value.has_value());
    return std::move(*handle_.promise().value);
  }

 private:
  std::coroutine_handle<promise_type> handle_;
};

/// Task<void> specialization.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : TaskPromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {}

 private:
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_PROCESS_H_
