#ifndef LAZYREP_FAULT_WAL_H_
#define LAZYREP_FAULT_WAL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "db/types.h"
#include "hw/disk.h"
#include "sim/process.h"

namespace lazyrep::fault {

/// Fixed header bytes per WAL record; redo records add the item's bytes.
inline constexpr size_t kWalRecordBytes = 64;
/// CPU instructions charged per replayed WAL record during recovery.
inline constexpr double kReplayInstrPerRecord = 2000;

/// Per-site write-ahead log, amnesia mode only.
///
/// The log is simulated at the cost level: records carry sizes, not kinds
/// or contents (DESIGN.md §4.6 lists what each append stands for) — replay
/// is a costed scan, and the item states it would reconstruct are the ones
/// the simulation kept in ItemStore (which plays the role of the always-
/// correct "disk image plus redo" state).
///
/// Appends buffer in memory (volatile: a crash wipes them); Force() stages
/// the buffered records and charges one physical log write through the
/// site's disk array. A force that a crash interrupts returns false — the
/// records never reached the platter, so the caller must treat the
/// transaction as unrecoverable (abort as site_failure). Durable records
/// accumulate into the bytes/records-since-checkpoint position that prices
/// the next recovery replay.
class SiteWal {
 public:
  explicit SiteWal(hw::DiskSubsystem* disk) : disk_(disk) {}
  SiteWal(const SiteWal&) = delete;
  SiteWal& operator=(const SiteWal&) = delete;

  /// Buffers one record of kWalRecordBytes + `payload_bytes` (volatile
  /// until the next successful Force()).
  void Append(size_t payload_bytes);

  /// Forces all buffered records to disk (one sequential log write). True
  /// when the force completed before any crash; false when the site crashed
  /// while the write was in flight (the records are lost).
  sim::Task<bool> Force();

  /// Crash hook: drops the volatile append buffer and advances the WAL
  /// epoch so in-flight forces report failure when they resume.
  void OnCrash();

  /// Crashes so far: the site's crash epoch.
  uint32_t epoch() const { return epoch_; }

  // -- checkpointing ----------------------------------------------------------

  /// Marks the just-forced checkpoint record as the new replay horizon:
  /// records before it will not be replayed. Call only after the Force()
  /// carrying the checkpoint record returned true.
  void OnCheckpointDurable();

  // -- recovery replay --------------------------------------------------------

  /// Log bytes / record count a recovery must scan (durable log since the
  /// last durable checkpoint). The caller charges disk ReadLog + CPU.
  size_t replay_bytes() const { return bytes_since_checkpoint_; }
  uint64_t replay_records() const { return records_since_checkpoint_; }

  /// Finishes a recovery: folds the scanned prefix into the replay stats
  /// and checkpoints (recovery ends by writing a fresh checkpoint, so the
  /// next crash replays only post-recovery records).
  void OnReplayComplete();

  // -- 2PC in-doubt set (eager protocol) --------------------------------------

  /// Records that `txn` has a durable prepare record but no outcome yet.
  /// In-doubt transactions survive a crash with their locks: recovery
  /// re-establishes them from the log and resolution waits for (or asks
  /// for) the coordinator's decision.
  void MarkPrepared(db::TxnId txn) { in_doubt_.insert(txn); }
  void MarkDecided(db::TxnId txn) { in_doubt_.erase(txn); }
  bool InDoubt(db::TxnId txn) const { return in_doubt_.contains(txn); }

  // -- statistics (window-resettable; log position is state, not a stat) ------

  uint64_t forces() const { return forces_; }
  uint64_t bytes_forced() const { return bytes_forced_; }
  uint64_t checkpoints() const { return checkpoints_; }
  uint64_t records_replayed() const { return records_replayed_; }
  uint64_t bytes_replayed() const { return bytes_replayed_; }
  void ResetStats();

 private:
  hw::DiskSubsystem* disk_;

  /// Buffered (volatile) appends awaiting the next force.
  size_t pending_bytes_ = 0;
  uint64_t pending_records_ = 0;

  /// Durable log position since the last durable checkpoint.
  size_t bytes_since_checkpoint_ = 0;
  uint64_t records_since_checkpoint_ = 0;

  /// Bumped by OnCrash() so an interrupted force knows its write was lost.
  uint32_t epoch_ = 0;

  std::unordered_set<db::TxnId> in_doubt_;

  uint64_t forces_ = 0;
  uint64_t bytes_forced_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t records_replayed_ = 0;
  uint64_t bytes_replayed_ = 0;
};

}  // namespace lazyrep::fault

#endif  // LAZYREP_FAULT_WAL_H_
