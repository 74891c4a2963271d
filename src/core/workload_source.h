#ifndef LAZYREP_CORE_WORKLOAD_SOURCE_H_
#define LAZYREP_CORE_WORKLOAD_SOURCE_H_

#include "core/config.h"
#include "db/types.h"
#include "sim/random.h"
#include "txn/transaction.h"
#include "txn/workload.h"

namespace lazyrep::core {

/// Where a System's transactions come from (DESIGN.md §4.9).
///
/// Each site's generator process alternates two calls: NextArrival announces
/// when the site's next transaction is submitted (or that the site is done),
/// then — once the simulation clock reaches that instant and the run is not
/// finished — NextTxn builds the transaction that is submitted there. The
/// Poisson generator of §3 is one implementation (GeneratedWorkload, the
/// default); a captured trace replayed as a script is another
/// (replay::ScriptWorkload).
///
/// Contract: for every site the calls strictly alternate, starting with
/// NextArrival; a NextTxn may be skipped only when the run ended while the
/// site waited out its arrival delay (the transaction is then never built —
/// generated sources must not pre-draw it, script sources must not advance
/// their cursor in NextArrival). `rng` is the site's private stream; a
/// source either consumes it exactly as the seeded workload model would
/// (generated) or not at all (script), never partially.
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  struct Arrival {
    bool has = false;      ///< false: this site submits nothing further
    sim::SimTime at = 0;   ///< inter-arrival delay, or absolute instant
    bool absolute = false; ///< true: `at` is an absolute simulation time
  };

  /// Announces site `s`'s next submission. Generated sources draw the
  /// inter-arrival gap from `rng` (relative); script sources return the
  /// recorded instant verbatim (absolute — replay must not re-accumulate
  /// deltas, which drifts from the recorded doubles by ulps).
  virtual Arrival NextArrival(db::SiteId s, sim::RandomStream* rng) = 0;

  /// Builds the transaction the last NextArrival announced, under the
  /// globally-sequential id the System assigned at the submission instant.
  virtual txn::Transaction NextTxn(db::TxnId id, db::SiteId s,
                                   sim::RandomStream* rng) = 0;
};

/// The paper's open-loop Poisson workload: exponential inter-arrival times
/// at each site's share of the offered load, transactions drawn from the
/// Table-1 mix over the configured sites and replica placement.
/// Byte-identical to the pre-WorkloadSource generator loop — the same RNG
/// draws in the same order (star_identity_test pins this).
class GeneratedWorkload final : public WorkloadSource {
 public:
  explicit GeneratedWorkload(const SystemConfig& config)
      : generator_(config.workload, config.placement()),
        mean_(1.0 / config.loc_tps()) {}

  Arrival NextArrival(db::SiteId /*s*/, sim::RandomStream* rng) override {
    return Arrival{true, rng->Exponential(mean_), /*absolute=*/false};
  }

  txn::Transaction NextTxn(db::TxnId id, db::SiteId s,
                           sim::RandomStream* rng) override {
    return generator_.Generate(id, s, rng);
  }

 private:
  txn::WorkloadGenerator generator_;
  double mean_;  ///< mean inter-arrival time at one site
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_WORKLOAD_SOURCE_H_
