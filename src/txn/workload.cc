#include "txn/workload.h"

#include <unordered_set>

#include "sim/check.h"

namespace lazyrep::txn {

Transaction WorkloadGenerator::Generate(db::TxnId id, db::SiteId origin,
                                        sim::RandomStream* rng) const {
  LAZYREP_CHECK(origin < num_sites_);
  Transaction t;
  t.id = id;
  t.origin = origin;
  t.is_update = !rng->Chance(params_.read_only_fraction);

  int num_ops =
      static_cast<int>(rng->UniformInt(params_.min_ops, params_.max_ops));

  const int total = params_.items_per_site * num_sites_;
  const bool full_replication = replicas_per_item_ == num_sites_;
  // Items are distinct within a transaction, so a tiny database bounds the
  // operation count: reads draw only from the items replicated at the origin
  // (the whole database under full replication). Without the clamp the
  // distinct-item rejection loops below cannot terminate.
  const int reachable =
      full_replication ? total : replicas_per_item_ * params_.items_per_site;
  if (num_ops > reachable) num_ops = reachable;
  t.ops.reserve(num_ops);
  // The primary-item range owned by the origination site.
  const int own_lo = origin * params_.items_per_site;
  const int own_hi = own_lo + params_.items_per_site - 1;

  std::unordered_set<db::ItemId> used;
  used.reserve(num_ops * 2);

  for (int i = 0; i < num_ops; ++i) {
    db::Operation op;
    op.type = (t.is_update && rng->Chance(params_.write_op_fraction))
                  ? db::OpType::kWrite
                  : db::OpType::kRead;
    // Writes draw from the origin's primary items (ownership rule, §2.1)
    // unless relaxed; reads draw from the whole database. Items are distinct
    // within the transaction (Appendix assumption), found by rejection.
    int lo = 0;
    int hi = total - 1;
    if (op.type == db::OpType::kWrite && !params_.relaxed_ownership) {
      lo = own_lo;
      hi = own_hi;
    }
    // A write pool of items_per_site bounds the distinct writes available;
    // fall back to a read when the pool is exhausted.
    if (op.type == db::OpType::kWrite &&
        static_cast<int>(used.size()) >= hi - lo + 1) {
      bool pool_full = true;
      for (int d = lo; d <= hi; ++d) {
        if (!used.contains(static_cast<db::ItemId>(d))) {
          pool_full = false;
          break;
        }
      }
      if (pool_full) {
        op.type = db::OpType::kRead;
        lo = 0;
        hi = total - 1;
      }
    }
    db::ItemId item;
    if (op.type == db::OpType::kRead && !full_replication) {
      // Reads must hit a replica at the origination site: the k consecutive
      // primary blocks ending at `origin` hold exactly the locally
      // replicated items.
      int k = replicas_per_item_;
      do {
        int block =
            (origin - static_cast<int>(rng->UniformInt(0, k - 1)) +
             num_sites_) %
            num_sites_;
        item = static_cast<db::ItemId>(
            block * params_.items_per_site +
            rng->UniformInt(0, params_.items_per_site - 1));
      } while (used.contains(item));
    } else {
      do {
        item = static_cast<db::ItemId>(rng->UniformInt(lo, hi));
      } while (used.contains(item));
    }
    used.insert(item);
    op.item = item;
    t.ops.push_back(op);
  }

  t.RebuildAccessSets();
  // A transaction that drew the update class but no write operations behaves
  // as (and is classified as) read-only.
  if (t.write_set.empty()) t.is_update = false;
  return t;
}

}  // namespace lazyrep::txn
