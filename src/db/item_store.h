#ifndef LAZYREP_DB_ITEM_STORE_H_
#define LAZYREP_DB_ITEM_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "db/types.h"

namespace lazyrep::db {

/// The commit time of every writer, indexed by transaction id and shared by
/// every store of a System. A writer's timestamp is stamped once, at its
/// commit point, before any of its writes applies, so a replica keeps only
/// its writer's 4-byte id and the time is kept here once. The table grows
/// with the highest writer id applied; id 0, the initial version, has time 0.
class WriterTimes {
 public:
  WriterTimes() : times_(1, 0.0) {}

  /// Makes room for writer ids up to `max_writer`, so that applying their
  /// writes allocates nothing.
  void Reserve(TxnId max_writer) { times_.reserve(max_writer + 1); }

  /// Records `ts.time` on `ts.txn`'s first write and checks that every later
  /// write by the same writer carries the same time.
  void Note(Timestamp ts);

  sim::SimTime TimeOf(WriterId writer) const { return times_[writer]; }

 private:
  /// Time of a writer none of whose writes has applied yet (simulated time
  /// is never negative).
  static constexpr sim::SimTime kUnstamped = -1;
  std::vector<sim::SimTime> times_;
};

/// One physical site's replica set: for every data item, the writer of the
/// locally installed version plus the readers of that version.
///
/// Writes follow the Thomas Write Rule (§2.1): a write whose transaction
/// timestamp is older than the installed version's timestamp is ignored —
/// the writer continues as if it had succeeded. Reader lists feed the
/// local-serialization-order predecessor edges used by completion tracking.
///
/// Layout: a dense array of 4-byte writer ids, one per item; a version's
/// timestamp is (the writer's time in the shared WriterTimes, the writer's
/// id). A sparse reader table holds only the items with live readers. Only a
/// site's own transactions register readers, so at any instant the table
/// holds a few dozen items, not the site's whole replica set. The table is
/// open-addressed (linear probing, backward-shift deletion) and maps an item
/// to one of a pool of reader lists; each list keeps its readers in
/// registration order, and emptied lists are recycled, so the steady state
/// allocates nothing.
class ItemStore {
 public:
  /// `writer_times` is shared with the other stores of the System and must
  /// outlive this one.
  ItemStore(uint32_t num_items, WriterTimes* writer_times)
      : writers_(num_items), writer_times_(writer_times) {}

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

  /// Applies (or ignores, per TWR) a write of `item` stamped `ts`. Every
  /// write by one writer must carry the same time (checked; see
  /// WriterTimes), and ts.txn must fit a WriterId.
  WriteResult ApplyWrite(ItemId item, Timestamp ts);

  /// Reads the installed version; registers `reader` against it. Returns the
  /// version's write timestamp (ts.txn identifies the writer).
  Timestamp Read(ItemId item, TxnId reader);

  /// Current version timestamp without registering a reader.
  Timestamp VersionOf(ItemId item) const { return Version(writers_[item]); }

  /// Removes `reader`'s registrations (on abort or completion).
  void RemoveReader(TxnId reader, const std::vector<ItemId>& items);

  /// Readers registered against the current version of `item`, in
  /// registration order. Valid until the next call on this store.
  std::span<const TxnId> ReadersOf(ItemId item) const;

  uint32_t num_items() const { return static_cast<uint32_t>(writers_.size()); }

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

  Timestamp Version(WriterId writer) const {
    return Timestamp{writer_times_->TimeOf(writer), writer};
  }

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

  std::vector<WriterId> writers_;  // 0: the initial database state
  WriterTimes* writer_times_;
  std::vector<Slot> slots_;  // power-of-two size, or empty
  uint32_t shift_ = 0;       // 64 - log2(slots_.size())
  uint32_t live_ = 0;        // occupied slots
  std::vector<std::vector<TxnId>> lists_;
  std::vector<uint32_t> free_lists_;  // ids of lists_ not in any slot
  uint64_t writes_ignored_ = 0;
};

}  // namespace lazyrep::db

#endif  // LAZYREP_DB_ITEM_STORE_H_
