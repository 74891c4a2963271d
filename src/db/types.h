#ifndef LAZYREP_DB_TYPES_H_
#define LAZYREP_DB_TYPES_H_

#include <compare>
#include <cstdint>

#include "sim/event_queue.h"

namespace lazyrep::db {

/// Globally unique transaction identifier (assigned at submission).
using TxnId = uint64_t;

/// Invalid / "no transaction" sentinel.
inline constexpr TxnId kNoTxn = 0;

/// A version names the transaction that wrote it in 4 bytes
/// (ReplicaVersions), so a run issues transaction ids up to this bound.
using WriterId = uint32_t;
inline constexpr TxnId kMaxTxnId = UINT32_MAX;

/// Data item identifier. Item i's primary site is i / items_per_site.
using ItemId = uint32_t;

/// Physical site identifier.
using SiteId = uint16_t;

/// Which sites hold a replica of which item. With `replicas` equal to
/// `num_sites` every site holds every item (the paper's full replication);
/// otherwise item i is held by its primary site, i / items_per_site, and
/// the replicas - 1 sites after it, wrapping around (§5 future work).
struct Placement {
  uint32_t num_sites = 1;
  uint32_t items_per_site = 1;
  uint32_t replicas = 1;

  uint32_t num_items() const { return num_sites * items_per_site; }
  bool full() const { return replicas == num_sites; }
  SiteId Primary(ItemId item) const {
    return static_cast<SiteId>(item / items_per_site);
  }
  bool Holds(ItemId item, SiteId site) const {
    if (full()) return true;
    return (site + num_sites - Primary(item)) % num_sites < replicas;
  }
  /// Items each site holds: `replicas` primary blocks.
  uint32_t items_held() const { return replicas * items_per_site; }
  /// The primary site of the `back`-th block `site` holds, counting back
  /// from its own (back < replicas).
  SiteId HeldBlock(SiteId site, uint32_t back) const {
    return static_cast<SiteId>((site + num_sites - back) % num_sites);
  }
  /// Calls `fn(site)` for every site holding `item`, in ascending site
  /// order.
  template <typename Fn>
  void ForEachReplica(ItemId item, Fn&& fn) const {
    const uint32_t primary = full() ? 0 : Primary(item);
    const uint32_t end = primary + replicas;  // one past the last, unwrapped
    for (uint32_t s = num_sites; s < end; ++s) {
      fn(static_cast<SiteId>(s - num_sites));  // the wrapped ones come first
    }
    for (uint32_t s = primary; s < end && s < num_sites; ++s) {
      fn(static_cast<SiteId>(s));
    }
  }
};

/// Transaction timestamp used by the Thomas Write Rule: stamped at the
/// transaction's commit point (core::System::StampCommitTimestamp); totally
/// ordered by (time, txn id).
struct Timestamp {
  sim::SimTime time = 0;
  TxnId txn = kNoTxn;

  friend auto operator<=>(const Timestamp&, const Timestamp&) = default;
};

/// Zero timestamp: older than any transaction's timestamp.
inline constexpr Timestamp kZeroTimestamp{};

/// Database operation kind.
enum class OpType : uint8_t {
  kRead,
  kWrite,
};

/// One transaction operation: read or write of a data item.
struct Operation {
  OpType type = OpType::kRead;
  ItemId item = 0;
};

}  // namespace lazyrep::db

#endif  // LAZYREP_DB_TYPES_H_
