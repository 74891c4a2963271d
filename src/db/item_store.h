#ifndef LAZYREP_DB_ITEM_STORE_H_
#define LAZYREP_DB_ITEM_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "db/types.h"

namespace lazyrep::db {

/// One physical site's replica set: for every data item, the write timestamp
/// of the locally installed version plus the readers of that version.
///
/// Writes follow the Thomas Write Rule (§2.1): a write whose transaction
/// timestamp is older than the installed version's timestamp is ignored —
/// the writer continues as if it had succeeded. Reader lists feed the
/// local-serialization-order predecessor edges used by completion tracking.
///
/// Layout: a dense array of 16-byte version timestamps, one per item, and a
/// sparse reader table that holds only the items with live readers. Only a
/// site's own transactions register readers, so at any instant the table
/// holds a few dozen items, not the site's whole replica set. The table is
/// open-addressed (linear probing, backward-shift deletion) and maps an item
/// to one of a pool of reader lists; each list keeps its readers in
/// registration order, and emptied lists are recycled, so the steady state
/// allocates nothing.
class ItemStore {
 public:
  explicit ItemStore(uint32_t num_items) : versions_(num_items) {}

  /// Outcome of a TWR write.
  struct WriteResult {
    /// False when the Thomas Write Rule ignored the write.
    bool applied = false;
    /// Transactions that read the version this write replaced (conflict
    /// predecessors of the writer), in registration order. Empty for an
    /// ignored write. A view into the store: valid until the next call on
    /// this store.
    std::span<const TxnId> prior_readers;
    /// Writer of the version this write replaced (ww predecessor), or the
    /// newer writer that masked an ignored write (the ignored writer then
    /// precedes `other_writer` in the serialization order).
    TxnId other_writer = kNoTxn;
  };

  /// Applies (or ignores, per TWR) a write of `item` stamped `ts`.
  WriteResult ApplyWrite(ItemId item, Timestamp ts);

  /// Reads the installed version; registers `reader` against it. Returns the
  /// version's write timestamp (ts.txn identifies the writer).
  Timestamp Read(ItemId item, TxnId reader);

  /// Current version timestamp without registering a reader.
  Timestamp VersionOf(ItemId item) const { return versions_[item]; }

  /// Removes `reader`'s registrations (on abort or completion).
  void RemoveReader(TxnId reader, const std::vector<ItemId>& items);

  /// Readers registered against the current version of `item`, in
  /// registration order. Valid until the next call on this store.
  std::span<const TxnId> ReadersOf(ItemId item) const;

  uint32_t num_items() const { return static_cast<uint32_t>(versions_.size()); }

  uint64_t writes_ignored() const { return writes_ignored_; }

 private:
  friend struct ItemStoreTestPeer;  // reads slot placement in db_test

  /// One reader-table slot: `item`'s readers are lists_[list]. A slot with
  /// list == kEmpty is free.
  struct Slot {
    ItemId item = 0;
    uint32_t list = kEmpty;
  };
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// Slot holding `item`, or kNotFound.
  size_t Find(ItemId item) const;
  static constexpr size_t kNotFound = SIZE_MAX;
  /// Slot holding `item`, or the free slot that ends its probe run. Needs a
  /// non-empty slot array.
  size_t Probe(ItemId item) const;
  /// First slot of `item`'s probe run.
  size_t Home(ItemId item) const;
  /// Frees slot `pos` (its list goes back to the pool untouched, so a view
  /// of it stays readable until the list is reused) and shifts the rest of
  /// its probe run back so no lookup crosses a hole.
  void Erase(size_t pos);
  /// Doubles the slot array (16 slots at first) and re-places every entry.
  void Grow();

  std::vector<Timestamp> versions_;  // zero: the initial database state
  std::vector<Slot> slots_;          // power-of-two size, or empty
  uint32_t shift_ = 0;               // 64 - log2(slots_.size())
  uint32_t live_ = 0;                // occupied slots
  std::vector<std::vector<TxnId>> lists_;
  std::vector<uint32_t> free_lists_;  // ids of lists_ not in any slot
  uint64_t writes_ignored_ = 0;
};

}  // namespace lazyrep::db

#endif  // LAZYREP_DB_ITEM_STORE_H_
