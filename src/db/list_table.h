#ifndef LAZYREP_DB_LIST_TABLE_H_
#define LAZYREP_DB_LIST_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lazyrep::db {

/// A sparse map from an integer id to a list of values, for the few dozen
/// ids a site has live at once: an item's readers at a store, the items a
/// transaction holds locks on at a lock manager.
///
/// The table is open-addressed (Fibonacci hashing, linear probing,
/// backward-shift deletion, at most half full) and maps a key to one of a
/// pool of lists. A freed slot's list goes back to the pool with its values
/// and capacity; it is cleared when the next new key takes it, so the steady
/// state allocates nothing. Nothing walks the table in order.
template <typename Key, typename T>
class ListTable {
 public:
  using List = std::vector<T>;
  static constexpr size_t kNotFound = SIZE_MAX;

  /// Slot holding `key`, or kNotFound.
  size_t Find(Key key) const {
    if (live_ == 0) return kNotFound;
    const size_t pos = Probe(key);
    return slots_[pos].list == kEmpty ? kNotFound : pos;
  }

  /// The list of occupied slot `pos` (a Find result).
  List& At(size_t pos) { return lists_[slots_[pos].list]; }
  const List& At(size_t pos) const { return lists_[slots_[pos].list]; }

  /// `key`'s list; a key not in the table gets an empty one from the pool.
  List& FindOrInsert(Key key) {
    if (slots_.empty()) Grow();
    size_t pos = Probe(key);
    if (slots_[pos].list != kEmpty) return lists_[slots_[pos].list];
    if (2 * (live_ + 1) > slots_.size()) {
      Grow();
      pos = Probe(key);
    }
    uint32_t list;
    if (free_lists_.empty()) {
      list = static_cast<uint32_t>(lists_.size());
      lists_.emplace_back();
    } else {
      list = free_lists_.back();
      free_lists_.pop_back();
      lists_[list].clear();
    }
    slots_[pos] = Slot{key, list};
    ++live_;
    return lists_[list];
  }

  /// Frees slot `pos`; its list goes back to the pool untouched, so a view
  /// of it stays readable until a new key takes the list.
  void Erase(size_t pos) { Recycle(Detach(pos)); }

  /// Frees slot `pos` but keeps its list out of the pool until
  /// Recycle(list), so no new key can take it meanwhile. Returns the list.
  uint32_t Detach(size_t pos) {
    const uint32_t list = slots_[pos].list;
    --live_;
    const size_t mask = slots_.size() - 1;
    size_t hole = pos;
    for (size_t next = (hole + 1) & mask; slots_[next].list != kEmpty;
         next = (next + 1) & mask) {
      // The entry at `next` fills the hole when its probe run from its home
      // slot passes through the hole.
      const size_t home = Home(slots_[next].key);
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole].list = kEmpty;
    return list;
  }

  /// The values of a detached list. The span stays valid while the table
  /// changes: the list's buffer moves with it if the pool grows.
  std::span<const T> Detached(uint32_t list) const { return lists_[list]; }

  /// Returns a detached list to the pool.
  void Recycle(uint32_t list) { free_lists_.push_back(list); }

  /// Frees every slot; every list goes back to the pool.
  void Clear() {
    for (Slot& slot : slots_) {
      if (slot.list == kEmpty) continue;
      free_lists_.push_back(slot.list);
      slot.list = kEmpty;
    }
    live_ = 0;
  }

  /// Slot array length: a power of two, or 0 before the first insert.
  size_t slot_count() const { return slots_.size(); }

 private:
  /// One slot: `key`'s values are lists_[list]. A slot with list == kEmpty
  /// is free.
  struct Slot {
    Key key{};
    uint32_t list = kEmpty;
  };
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// First slot of `key`'s probe run.
  size_t Home(Key key) const {
    // Fibonacci hashing: the top log2(size) bits of a multiplicative hash.
    return static_cast<size_t>((uint64_t{key} * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }

  /// Slot holding `key`, or the free slot that ends its probe run. Needs a
  /// non-empty slot array.
  size_t Probe(Key key) const {
    const size_t mask = slots_.size() - 1;
    size_t pos = Home(key);
    while (slots_[pos].list != kEmpty && slots_[pos].key != key) {
      pos = (pos + 1) & mask;
    }
    return pos;
  }

  /// Doubles the slot array (16 slots at first) and re-places every entry.
  void Grow() {
    const size_t size = slots_.empty() ? 16 : 2 * slots_.size();
    std::vector<Slot> old(size);
    old.swap(slots_);
    shift_ = static_cast<uint32_t>(64 - std::countr_zero(size));
    for (const Slot& slot : old) {
      if (slot.list != kEmpty) slots_[Probe(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;  // power-of-two size, or empty
  uint32_t shift_ = 0;       // 64 - log2(slots_.size())
  uint32_t live_ = 0;        // occupied slots
  std::vector<List> lists_;
  std::vector<uint32_t> free_lists_;  // ids of lists_ not in any slot
};

}  // namespace lazyrep::db

#endif  // LAZYREP_DB_LIST_TABLE_H_
