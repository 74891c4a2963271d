#ifndef LAZYREP_DB_ITEM_STORE_H_
#define LAZYREP_DB_ITEM_STORE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "db/list_table.h"
#include "db/types.h"

namespace lazyrep::db {

/// The commit time of every writer, indexed by transaction id, kept once in
/// the ReplicaVersions every store of a System shares. A writer's timestamp
/// is stamped once, at its commit point, before any of its writes applies,
/// so a version names only its writer's 4-byte id and the time is kept here
/// once. The table grows with the highest writer id applied; id 0, the
/// initial version, has time 0.
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

/// The version of every replica of every item, shared by all the stores of
/// one System, with the commit time of every writer (WriterTimes).
///
/// Under the Thomas Write Rule a replica's version is the newest writer
/// ever applied there, and every writer of an item reaches each of its
/// replica sites in turn, so the replicas of an item agree on its version
/// except while a writer is still propagating. Per item the table keeps
/// `settled`, a writer every replica site has applied or passed (0, the
/// initial version, at first), and the item's in-flight writers: each is a
/// writer id, the number of replica sites that applied it, and a bitset
/// over the sites marking them. A site's version is the newest of `settled`
/// and the in-flight writers whose bit it has. When a writer's count
/// reaches the replica count it becomes `settled`, and every in-flight
/// writer of the item that is not newer is dropped: no site can hold one as
/// its version any more. With one replica per item a write settles at once.
///
/// Memory is 8 bytes per item plus, per writer in flight, 12 bytes and
/// ceil(sites / 64) words of bitset, from a pool whose freed entries are
/// reused, so the steady state allocates nothing. An item with no writer in
/// flight answers from its one 8-byte entry.
class ReplicaVersions {
 public:
  explicit ReplicaVersions(Placement placement);

  /// Bytes the table keeps per item, whatever the site count.
  static constexpr size_t kBytesPerItem = 8;

  const Placement& placement() const { return placement_; }

  /// Records ts.time as ts.txn's commit time (WriterTimes::Note).
  void NoteWriter(Timestamp ts) { times_.Note(ts); }
  /// Makes room for writer ids up to `max_writer` (WriterTimes::Reserve).
  void ReserveWriters(TxnId max_writer) { times_.Reserve(max_writer); }
  /// The timestamp of `writer`'s versions.
  Timestamp Stamp(WriterId writer) const {
    return Timestamp{times_.TimeOf(writer), writer};
  }

  /// Writer of the version `site` holds of `item` (0 at a site that holds
  /// no replica of it).
  WriterId WriterAt(ItemId item, SiteId site) const {
    const Entry& e = entries_[item];
    if (e.in_flight == kNone && placement_.full()) return e.settled;
    return NewestAt(item, site);
  }

  /// Records that `site`, a replica site of `item`, applied `writer`'s
  /// write: the write was newer than WriterAt(item, site). The first
  /// applying site creates the writer's entry; a repeated install at one
  /// site finds its bit set and is counted once.
  void Install(ItemId item, SiteId site, WriterId writer);

  /// In-flight entries: (writer, item) pairs applied at some but not all of
  /// the item's replica sites and newer than its settled writer. 0 once
  /// every writer has reached every replica site of what it wrote.
  size_t writers_in_flight() const { return in_flight_; }

 private:
  struct Entry {
    WriterId settled = 0;
    uint32_t in_flight = kNone;  // first in-flight writer, or kNone
  };
  static_assert(sizeof(Entry) == kBytesPerItem);
  /// One in-flight writer; its site bits are words_ words of bits_ from
  /// index * words_. A free one links the free list through `next`.
  struct InFlight {
    WriterId writer = 0;
    uint32_t count = 0;     // replica sites that applied it
    uint32_t next = kNone;  // the item's next in-flight writer
  };
  static constexpr uint32_t kNone = UINT32_MAX;

  WriterId NewestAt(ItemId item, SiteId site) const;
  /// Makes `writer` the item's settled version and drops every in-flight
  /// writer that is not newer.
  void Settle(Entry& e, WriterId writer);

  Placement placement_;
  WriterTimes times_;
  std::vector<Entry> entries_;
  std::vector<InFlight> writers_;
  std::vector<uint64_t> bits_;
  uint32_t words_;            // bitset words per in-flight writer
  uint32_t free_ = kNone;     // first free entry of writers_
  size_t in_flight_ = 0;
};

/// One physical site's replica set: for every data item, the writer of the
/// locally installed version plus the readers of that version.
///
/// Writes follow the Thomas Write Rule (§2.1): a write whose transaction
/// timestamp is older than the installed version's timestamp is ignored —
/// the writer continues as if it had succeeded. Reader lists feed the
/// local-serialization-order predecessor edges used by completion tracking.
///
/// Layout: the versions live in the System's shared ReplicaVersions, read
/// and written under this store's site id; a version's timestamp is (the
/// writer's time, the writer's id). A sparse reader table holds only the
/// items with live readers. Only a site's own transactions register
/// readers, so at any instant the table holds a few dozen items, not the
/// site's whole replica set. It is a ListTable (open-addressed, pooled
/// lists): each list keeps its readers in registration order, and emptied
/// lists are recycled, so the steady state allocates nothing.
class ItemStore {
 public:
  /// `versions` is shared with the other stores of the System and must
  /// outlive this one; `site` names this store's replicas in it.
  ItemStore(ReplicaVersions* versions, SiteId site)
      : versions_(versions), site_(site) {}

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
  /// WriterTimes), ts.txn must fit a WriterId, and this site must hold a
  /// replica of `item`.
  WriteResult ApplyWrite(ItemId item, Timestamp ts);

  /// Reads the installed version; registers `reader` against it. Returns the
  /// version's write timestamp (ts.txn identifies the writer).
  Timestamp Read(ItemId item, TxnId reader);

  /// Current version timestamp without registering a reader.
  Timestamp VersionOf(ItemId item) const {
    return versions_->Stamp(versions_->WriterAt(item, site_));
  }

  /// Removes `reader`'s registrations on `items` (on abort or completion).
  template <typename Items = std::initializer_list<ItemId>>
  void RemoveReader(TxnId reader, Items&& items) {
    for (ItemId item : items) RemoveReaderOf(reader, item);
  }

  /// Readers registered against the current version of `item`, in
  /// registration order. Valid until the next call on this store.
  std::span<const TxnId> ReadersOf(ItemId item) const;

  uint32_t num_items() const { return versions_->placement().num_items(); }

  uint64_t writes_ignored() const { return writes_ignored_; }

 private:
  friend struct ItemStoreTestPeer;  // reads slot placement in db_test

  /// Drops `reader` from `item`'s readers, and the item once it has none.
  void RemoveReaderOf(TxnId reader, ItemId item);

  ReplicaVersions* versions_;
  SiteId site_;
  /// Items with live readers. An applied write erases its item's entry and
  /// hands back a view of the list, readable until the list is reused.
  ListTable<ItemId, TxnId> readers_;
  uint64_t writes_ignored_ = 0;
};

}  // namespace lazyrep::db

#endif  // LAZYREP_DB_ITEM_STORE_H_
