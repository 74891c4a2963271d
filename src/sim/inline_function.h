#ifndef LAZYREP_SIM_INLINE_FUNCTION_H_
#define LAZYREP_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace lazyrep::sim {

/// Default inline capture capacity (bytes). Six pointers: enough for every
/// kernel scheduling site (the largest is the graph-site work closure at
/// exactly 48 bytes); small enough that an event slot stays cache-friendly.
inline constexpr size_t kInlineFunctionCapacity = 48;

template <typename Signature, size_t Capacity = kInlineFunctionCapacity>
class InlineFunction;

/// Move-only callable with fixed inline storage and no heap allocation.
///
/// This is the kernel's replacement for std::function on the event hot path:
/// a capture that does not fit in `Capacity` bytes is a compile error (the
/// static_assert in the converting constructor is the size contract — widen
/// the call site's captures deliberately, never silently spill to the heap).
///
/// Invariants:
///  * the target is stored in `storage_` (never out of line);
///  * moved-from and default-constructed instances are empty (operator bool
///    is false; invoking one is undefined, guarded by callers);
///  * targets must be nothrow-move-constructible so queue reallocation and
///    slot recycling cannot throw mid-heap-fixup.
template <typename R, typename... Args, size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<R, D&, Args...>,
                  "callable signature mismatch");
    static_assert(sizeof(D) <= Capacity,
                  "capture too large for inline callback storage");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned capture");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "captures must be nothrow-movable");
    if constexpr (std::is_empty_v<D>) {
      // A capture-less target writes no byte of storage_; give it one, so
      // the memcpy in MoveFrom never copies a wholly unwritten buffer (GCC
      // reports that as -Wuninitialized). Targets with state skip this.
      storage_[0] = 0;
    }
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
    invoke_ = [](void* s, Args... args) -> R {
      return (*static_cast<D*>(s))(std::forward<Args>(args)...);
    };
    if constexpr (std::is_trivially_copyable_v<D> &&
                  std::is_trivially_destructible_v<D>) {
      // Fast path for pointer-capture lambdas (the kernel's common case):
      // a null relocate_ means "memcpy to move, nothing to destroy", so the
      // two relocations per scheduled event cost no indirect call.
      relocate_ = nullptr;
    } else {
      relocate_ = [](void* src, void* dst) {
        D* from = static_cast<D*>(src);
        if (dst != nullptr) ::new (dst) D(std::move(*from));
        from->~D();
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  /// True when a target is installed.
  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  /// Destroys the target, leaving the function empty.
  void Reset() {
    if (invoke_ != nullptr) {
      if (relocate_ != nullptr) relocate_(storage_, nullptr);
      invoke_ = nullptr;
      relocate_ = nullptr;
    }
  }

 private:
  void MoveFrom(InlineFunction& other) noexcept {
    if (other.invoke_ != nullptr) {
      if (other.relocate_ != nullptr) {
        other.relocate_(other.storage_, storage_);
      } else {
        std::memcpy(storage_, other.storage_, Capacity);
      }
      invoke_ = other.invoke_;
      relocate_ = other.relocate_;
      other.invoke_ = nullptr;
      other.relocate_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  R (*invoke_)(void*, Args...) = nullptr;
  /// Move-constructs the target into `dst` (when non-null) and destroys the
  /// source — the single type-erased hook for move, destroy, and relocation.
  /// Null while invoke_ is set marks a trivially-relocatable target: moving
  /// is a memcpy of storage_ and destruction is a no-op.
  void (*relocate_)(void* src, void* dst) = nullptr;
};

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_INLINE_FUNCTION_H_
