#ifndef LAZYREP_CORE_HISTORY_H_
#define LAZYREP_CORE_HISTORY_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "db/types.h"

namespace lazyrep::core {

/// Records the reads-from relation and committed write sets of an execution
/// and checks one-copy serializability through the multiversion
/// serialization graph (MVSG).
///
/// The protocols guarantee global serializability [5,6]; this recorder turns
/// that claim into an executable check for the integration and property
/// tests. Edges:
///   * wr: the writer of the version a transaction read precedes the reader;
///   * ww: writers of an item are ordered by their (TWR) timestamps;
///   * rw: a reader of version v precedes every writer of a newer version.
/// The execution is one-copy serializable iff the MVSG over committed
/// transactions is acyclic (Bernstein/Hadzilacos/Goodman, ch. 5).
///
/// Recording only appends to flat logs. The check builds a graph with the
/// same reachability in time near-linear in the history: each read gets one
/// rw edge, to the first writer of a version newer than the one it read;
/// every later writer of that item follows it on the ww chain, so it stays
/// reachable from the reader and the verdict is unchanged.
/// trace::CheckTraceSerializable is the independent reference for it.
/// Like db::WriterTimes and db::ReplicaVersions, the check indexes dense
/// tables by id: 4 bytes per transaction id up to the largest committed one
/// and per item id up to the largest written one (a System issues both from
/// 0 or 1 upward).
class HistoryRecorder {
 public:
  /// Records that `reader` read the version of `item` written by the
  /// transaction with timestamp `version` (kZeroTimestamp = initial state).
  void RecordRead(db::TxnId reader, db::ItemId item, db::Timestamp version);

  /// Records a transaction's commit with its timestamp (which names the
  /// transaction, `ts.txn == txn`) and write set. Once per transaction.
  template <typename Items = std::initializer_list<db::ItemId>>
  void RecordCommit(db::TxnId txn, db::Timestamp ts, Items&& writes) {
    commits_.push_back(txn);
    for (db::ItemId item : writes) writes_.push_back(Write{ts, item});
  }

  /// Builds the MVSG over committed transactions and checks acyclicity.
  /// On failure, `why` (if non-null) names one cycle, each edge with its
  /// kind and item: "MVSG cycle: 7 -rw(x3)-> 9 -wr(x5)-> 7".
  bool CheckOneCopySerializable(std::string* why = nullptr) const;

  size_t committed_count() const { return commits_.size(); }
  size_t reads_recorded() const { return reads_.size(); }

 private:
  struct Read {
    db::TxnId reader;
    db::Timestamp version;
    db::ItemId item;
  };
  struct Write {
    db::Timestamp ts;
    db::ItemId item;
  };

  std::vector<db::TxnId> commits_;
  std::vector<Write> writes_;
  std::vector<Read> reads_;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_HISTORY_H_
