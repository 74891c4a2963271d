#include "db/item_store.h"

#include <algorithm>
#include <bit>

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
    if (const size_t pos = Find(item); pos != kNotFound) {
      result.prior_readers = lists_[slots_[pos].list];
      Erase(pos);
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
  if (slots_.empty()) Grow();
  size_t pos = Probe(item);
  if (slots_[pos].list != kEmpty) {
    std::vector<TxnId>& readers = lists_[slots_[pos].list];
    if (std::find(readers.begin(), readers.end(), reader) == readers.end()) {
      readers.push_back(reader);
    }
    return VersionOf(item);
  }
  if (2 * (live_ + 1) > slots_.size()) {
    Grow();
    pos = Probe(item);
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
  lists_[list].push_back(reader);
  slots_[pos] = Slot{item, list};
  ++live_;
  return VersionOf(item);
}

void ItemStore::RemoveReaderOf(TxnId reader, ItemId item) {
  const size_t pos = Find(item);
  if (pos == kNotFound) return;
  std::vector<TxnId>& readers = lists_[slots_[pos].list];
  readers.erase(std::remove(readers.begin(), readers.end(), reader),
                readers.end());
  if (readers.empty()) Erase(pos);
}

std::span<const TxnId> ItemStore::ReadersOf(ItemId item) const {
  const size_t pos = Find(item);
  if (pos == kNotFound) return {};
  return lists_[slots_[pos].list];
}

size_t ItemStore::Home(ItemId item) const {
  // Fibonacci hashing: the top log2(size) bits of a multiplicative hash.
  return static_cast<size_t>((uint64_t{item} * 0x9E3779B97F4A7C15ull) >>
                             shift_);
}

size_t ItemStore::Probe(ItemId item) const {
  const size_t mask = slots_.size() - 1;
  size_t pos = Home(item);
  while (slots_[pos].list != kEmpty && slots_[pos].item != item) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

size_t ItemStore::Find(ItemId item) const {
  if (live_ == 0) return kNotFound;
  const size_t pos = Probe(item);
  return slots_[pos].list == kEmpty ? kNotFound : pos;
}

void ItemStore::Erase(size_t pos) {
  free_lists_.push_back(slots_[pos].list);
  --live_;
  const size_t mask = slots_.size() - 1;
  size_t hole = pos;
  for (size_t next = (hole + 1) & mask; slots_[next].list != kEmpty;
       next = (next + 1) & mask) {
    // The entry at `next` fills the hole when its probe run from its home
    // slot passes through the hole.
    const size_t home = Home(slots_[next].item);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].list = kEmpty;
}

void ItemStore::Grow() {
  const size_t size = slots_.empty() ? 16 : 2 * slots_.size();
  std::vector<Slot> old(size);
  old.swap(slots_);
  shift_ = static_cast<uint32_t>(64 - std::countr_zero(size));
  for (const Slot& slot : old) {
    if (slot.list != kEmpty) slots_[Probe(slot.item)] = slot;
  }
}

}  // namespace lazyrep::db
