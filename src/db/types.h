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

/// A replica names the transaction that wrote it in 4 bytes (ItemStore), so
/// a run issues transaction ids up to this bound.
using WriterId = uint32_t;
inline constexpr TxnId kMaxTxnId = UINT32_MAX;

/// Data item identifier. Item i's primary site is i / items_per_site.
using ItemId = uint32_t;

/// Physical site identifier.
using SiteId = uint16_t;

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
