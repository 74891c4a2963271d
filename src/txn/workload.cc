#include "txn/workload.h"

#include <algorithm>

#include "sim/check.h"

namespace lazyrep::txn {

WorkloadGenerator::WorkloadGenerator(const WorkloadParams& params,
                                     db::Placement placement)
    : params_(params), placement_(placement) {
  LAZYREP_CHECK(placement.items_per_site ==
                static_cast<uint32_t>(params.items_per_site));
}

Transaction WorkloadGenerator::Generate(db::TxnId id, db::SiteId origin,
                                        sim::RandomStream* rng) const {
  LAZYREP_CHECK(origin < placement_.num_sites);
  Transaction t;
  t.id = id;
  t.origin = origin;
  t.is_update = !rng->Chance(params_.read_only_fraction);

  int num_ops =
      static_cast<int>(rng->UniformInt(params_.min_ops, params_.max_ops));

  const int total = static_cast<int>(placement_.num_items());
  // Items are distinct within a transaction, so a tiny database bounds the
  // operation count: every draw is an item the origin holds. Without the
  // clamp the distinct-item rejection loops below cannot terminate.
  const int reachable = static_cast<int>(placement_.items_held());
  if (num_ops > reachable) num_ops = reachable;
  t.ops.reserve(num_ops);
  // The primary-item range owned by the origination site.
  const int own_lo = origin * params_.items_per_site;
  const int own_hi = own_lo + params_.items_per_site - 1;
  // Whether an operation drawn so far names `item`: scanning 5-15
  // operations is cheaper than building a hash set per transaction.
  auto drawn = [&t](db::ItemId item) {
    return std::ranges::find(t.ops, item, &db::Operation::item) != t.ops.end();
  };

  for (int i = 0; i < num_ops; ++i) {
    db::Operation op;
    op.type = (t.is_update && rng->Chance(params_.write_op_fraction))
                  ? db::OpType::kWrite
                  : db::OpType::kRead;
    // Writes draw from the origin's primary items (ownership rule, §2.1)
    // unless relaxed; reads and relaxed writes draw from the items the
    // origin holds. Items are distinct within the transaction (Appendix
    // assumption), found by rejection.
    bool owned_write =
        op.type == db::OpType::kWrite && !params_.relaxed_ownership;
    // A write pool of items_per_site bounds the distinct writes available;
    // fall back to a read when the pool is exhausted.
    if (owned_write &&
        static_cast<int>(t.ops.size()) >= params_.items_per_site) {
      bool pool_full = true;
      for (int d = own_lo; d <= own_hi; ++d) {
        if (!drawn(static_cast<db::ItemId>(d))) {
          pool_full = false;
          break;
        }
      }
      if (pool_full) {
        op.type = db::OpType::kRead;
        owned_write = false;
      }
    }
    db::ItemId item;
    if (owned_write) {
      do {
        item = static_cast<db::ItemId>(rng->UniformInt(own_lo, own_hi));
      } while (drawn(item));
    } else if (placement_.full()) {
      do {
        item = static_cast<db::ItemId>(rng->UniformInt(0, total - 1));
      } while (drawn(item));
    } else {
      // The origin holds exactly the `replicas` primary blocks ending at its
      // own.
      do {
        const db::SiteId block = placement_.HeldBlock(
            origin, static_cast<uint32_t>(
                        rng->UniformInt(0, placement_.replicas - 1)));
        item = static_cast<db::ItemId>(
            block * params_.items_per_site +
            rng->UniformInt(0, params_.items_per_site - 1));
      } while (drawn(item));
    }
    op.item = item;
    t.ops.push_back(op);
  }

  // A transaction that drew the update class but no write operations behaves
  // as (and is classified as) read-only.
  if (t.num_writes() == 0) t.is_update = false;
  return t;
}

}  // namespace lazyrep::txn
