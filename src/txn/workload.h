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
  /// write any item, not just items whose primary site is the origin.
  bool relaxed_ownership = false;
};

/// Generates transactions per the paper's model: items are drawn uniformly
/// from the (hot-spot) database, operation items are distinct within a
/// transaction, and write items respect primary-copy ownership.
///
/// The database is `num_sites` primary blocks of params.items_per_site
/// items, each held at `replicas_per_item` consecutive sites starting at
/// its primary (SystemConfig::HasReplica); `replicas_per_item ==
/// num_sites` is full replication.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadParams& params, int num_sites,
                    int replicas_per_item)
      : params_(params),
        num_sites_(num_sites),
        replicas_per_item_(replicas_per_item) {}

  /// Builds the next transaction originating at `origin`.
  Transaction Generate(db::TxnId id, db::SiteId origin,
                       sim::RandomStream* rng) const;

 private:
  WorkloadParams params_;
  int num_sites_;
  int replicas_per_item_;
};

}  // namespace lazyrep::txn

#endif  // LAZYREP_TXN_WORKLOAD_H_
