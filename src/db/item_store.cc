#include "db/item_store.h"

#include <algorithm>

#include "sim/check.h"

namespace lazyrep::db {

void WriterTimes::Note(Timestamp ts) {
  LAZYREP_CHECK_MSG(ts.txn <= kMaxTxnId, "writer id does not fit 4 bytes");
  if (ts.txn >= times_.size()) times_.resize(ts.txn + 1, kUnstamped);
  sim::SimTime& time = times_[ts.txn];
  if (time == kUnstamped) time = ts.time;
  LAZYREP_CHECK_MSG(time == ts.time,
                    "writer applied with two different commit times");
}

ReplicaVersions::ReplicaVersions(Placement placement)
    : placement_(placement),
      entries_(placement.num_items()),
      words_((placement.num_sites + 63) / 64) {}

WriterId ReplicaVersions::NewestAt(ItemId item, SiteId site) const {
  const Entry& e = entries_[item];
  WriterId newest = placement_.Holds(item, site) ? e.settled : 0;
  const size_t word = site / 64;
  const uint64_t bit = uint64_t{1} << (site % 64);
  for (uint32_t f = e.in_flight; f != kNone; f = writers_[f].next) {
    const WriterId writer = writers_[f].writer;
    if ((bits_[size_t{f} * words_ + word] & bit) != 0 &&
        Stamp(writer) > Stamp(newest)) {
      newest = writer;
    }
  }
  return newest;
}

void ReplicaVersions::Install(ItemId item, SiteId site, WriterId writer) {
  LAZYREP_CHECK_MSG(placement_.Holds(item, site),
                    "write applied at a site without a replica");
  Entry& e = entries_[item];
  if (placement_.replicas == 1) {
    e.settled = writer;
    return;
  }
  uint32_t f = e.in_flight;
  while (f != kNone && writers_[f].writer != writer) f = writers_[f].next;
  if (f == kNone) {
    if (free_ == kNone) {
      f = static_cast<uint32_t>(writers_.size());
      writers_.emplace_back();
      bits_.resize(bits_.size() + words_);
    } else {
      f = free_;
      free_ = writers_[f].next;
    }
    writers_[f] = InFlight{writer, 0, e.in_flight};
    e.in_flight = f;
    ++in_flight_;
  }
  uint64_t& word = bits_[size_t{f} * words_ + site / 64];
  const uint64_t bit = uint64_t{1} << (site % 64);
  if ((word & bit) != 0) return;
  word |= bit;
  if (++writers_[f].count == placement_.replicas) Settle(e, writer);
}

void ReplicaVersions::Settle(Entry& e, WriterId writer) {
  e.settled = writer;
  const Timestamp settled = Stamp(writer);
  uint32_t* link = &e.in_flight;
  while (*link != kNone) {
    const uint32_t f = *link;
    if (Stamp(writers_[f].writer) > settled) {
      link = &writers_[f].next;
      continue;
    }
    *link = writers_[f].next;
    std::fill_n(bits_.begin() + size_t{f} * words_, words_, uint64_t{0});
    writers_[f].next = free_;
    free_ = f;
    --in_flight_;
  }
}

ItemStore::WriteResult ItemStore::ApplyWrite(ItemId item, Timestamp ts) {
  versions_->NoteWriter(ts);
  const WriterId writer = versions_->WriterAt(item, site_);
  WriteResult result;
  result.other_writer = writer;
  if (ts > versions_->Stamp(writer)) {
    result.applied = true;
    if (const size_t pos = readers_.Find(item); pos != readers_.kNotFound) {
      result.prior_readers = readers_.At(pos);
      readers_.Erase(pos);
    }
    versions_->Install(item, site_, static_cast<WriterId>(ts.txn));
  } else {
    // Thomas Write Rule: the write is ignored; logically it precedes the
    // installed (newer) version, so its writer must precede that version's
    // writer.
    ++writes_ignored_;
  }
  return result;
}

Timestamp ItemStore::Read(ItemId item, TxnId reader) {
  std::vector<TxnId>& readers = readers_.FindOrInsert(item);
  if (std::find(readers.begin(), readers.end(), reader) == readers.end()) {
    readers.push_back(reader);
  }
  return VersionOf(item);
}

void ItemStore::RemoveReaderOf(TxnId reader, ItemId item) {
  const size_t pos = readers_.Find(item);
  if (pos == readers_.kNotFound) return;
  std::vector<TxnId>& readers = readers_.At(pos);
  std::erase(readers, reader);
  if (readers.empty()) readers_.Erase(pos);
}

std::span<const TxnId> ItemStore::ReadersOf(ItemId item) const {
  const size_t pos = readers_.Find(item);
  if (pos == readers_.kNotFound) return {};
  return readers_.At(pos);
}

}  // namespace lazyrep::db
