#ifndef LAZYREP_TXN_WORKLOAD_H_
#define LAZYREP_TXN_WORKLOAD_H_

#include <cstdint>

#include "db/types.h"
#include "sim/random.h"
#include "txn/transaction.h"

namespace lazyrep::txn {

/// Transaction-mix parameters (Table 1 of the paper).
struct WorkloadParams {
  /// Fraction of read-only transactions (paper: 90%).
  double read_only_fraction = 0.90;
  /// Fraction of operations that are writes within an update transaction
  /// (paper: 30%).
  double write_op_fraction = 0.30;
  /// Operations per transaction: uniform in [min_ops, max_ops] (paper: 5-15,
  /// average 10).
  int min_ops = 5;
  int max_ops = 15;
  /// Primary items per site (paper: 20). |DB| = items_per_site * #sites.
  int items_per_site = 20;
  /// Footnote-2 relaxation (ablation A5): when true, update transactions may
  /// write any item the origin holds, not just items whose primary site is
  /// the origin.
  bool relaxed_ownership = false;
};

/// Generates transactions per the paper's model: items are drawn uniformly
/// from the (hot-spot) database, operation items are distinct within a
/// transaction, and write items respect primary-copy ownership.
///
/// The database is the one `placement` lays out, whose items_per_site must
/// be params.items_per_site. Every operation's item is held at the
/// transaction's origin.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadParams& params, db::Placement placement);

  /// Builds the next transaction originating at `origin`.
  Transaction Generate(db::TxnId id, db::SiteId origin,
                       sim::RandomStream* rng) const;

 private:
  WorkloadParams params_;
  db::Placement placement_;
};

}  // namespace lazyrep::txn

#endif  // LAZYREP_TXN_WORKLOAD_H_
