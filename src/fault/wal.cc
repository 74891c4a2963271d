#include "fault/wal.h"

namespace lazyrep::fault {

void SiteWal::Append(size_t payload_bytes) {
  pending_bytes_ += kWalRecordBytes + payload_bytes;
  ++pending_records_;
}

sim::Task<bool> SiteWal::Force() {
  if (pending_bytes_ == 0) co_return true;
  // Stage the buffered records: they belong to this force. Appends that
  // arrive while the write is in flight ride the next force (group commit
  // would batch them; per-force staging keeps the accounting per-caller).
  size_t bytes = pending_bytes_;
  uint64_t records = pending_records_;
  pending_bytes_ = 0;
  pending_records_ = 0;
  uint32_t epoch = epoch_;
  co_await disk_->ForceLog(bytes);
  if (epoch_ != epoch) co_return false;  // crashed mid-force: write lost
  ++forces_;
  bytes_forced_ += bytes;
  bytes_since_checkpoint_ += bytes;
  records_since_checkpoint_ += records;
  co_return true;
}

void SiteWal::OnCrash() {
  pending_bytes_ = 0;
  pending_records_ = 0;
  ++epoch_;
}

void SiteWal::OnCheckpointDurable() {
  bytes_since_checkpoint_ = 0;
  records_since_checkpoint_ = 0;
  ++checkpoints_;
}

void SiteWal::OnReplayComplete() {
  records_replayed_ += records_since_checkpoint_;
  bytes_replayed_ += bytes_since_checkpoint_;
  bytes_since_checkpoint_ = 0;
  records_since_checkpoint_ = 0;
}

void SiteWal::ResetStats() {
  forces_ = 0;
  bytes_forced_ = 0;
  checkpoints_ = 0;
  records_replayed_ = 0;
  bytes_replayed_ = 0;
}

}  // namespace lazyrep::fault
