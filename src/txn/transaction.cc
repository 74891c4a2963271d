#include "txn/transaction.h"

namespace lazyrep::txn {

const char* TxnStateName(TxnState state) {
  switch (state) {
    case TxnState::kActive:
      return "active";
    case TxnState::kCommitted:
      return "committed";
    case TxnState::kAborted:
      return "aborted";
    case TxnState::kCompleted:
      return "completed";
  }
  return "unknown";
}

const char* AbortCauseName(AbortCause cause) {
  switch (cause) {
    case AbortCause::kNone:
      return "none";
    case AbortCause::kLockTimeout:
      return "lock_timeout";
    case AbortCause::kGraphAbort:
      return "graph_abort";
    case AbortCause::kGraphRejected:
      return "graph_rejected";
    case AbortCause::kStaleWrite:
      return "stale_write";
    case AbortCause::kTornRead:
      return "torn_read";
    case AbortCause::kUnavailable:
      return "unavailable";
    case AbortCause::kSiteFailure:
      return "site_failure";
    case AbortCause::kCount:
      break;
  }
  return "unknown";
}

}  // namespace lazyrep::txn
