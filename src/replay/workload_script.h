#ifndef LAZYREP_REPLAY_WORKLOAD_SCRIPT_H_
#define LAZYREP_REPLAY_WORKLOAD_SCRIPT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/study.h"
#include "core/workload_source.h"
#include "db/types.h"
#include "trace/trace_reader.h"

namespace lazyrep::replay {

/// One scripted transaction: the recorded submission instant and the exact
/// operation list the original run generated.
struct ScriptTxn {
  double submit_time = 0;
  bool is_update = false;
  std::vector<db::Operation> ops;
};

/// The deterministic workload schedule extracted from one captured point
/// block (DESIGN.md §4.9): per-site submission sequences in trace order,
/// with each transaction's exact op-level read/write set. Everything a run
/// consumes from its workload generator — and nothing it derives itself
/// (ids, warm-up accounting, timestamps) — so the same script re-executed
/// under a different protocol, topology, or fault schedule holds the
/// workload fixed while everything else varies.
class WorkloadScript {
 public:
  /// Extracts the schedule from `pt` (from a file whose header said
  /// `trace_version`). Fails with a diagnostic in `error` when the point
  /// recorded no submissions at all, when it lacks the v2 kSubmitOp
  /// access-set records (a v1-era capture cannot be replayed), or when it is
  /// corrupt: among others, a transaction that names an item twice.
  static bool FromPoint(const trace::PointTrace& pt, uint32_t trace_version,
                        WorkloadScript* out, std::string* error);

  /// Checks the script against the database it will replay on, `config`
  /// (as MakeReplayConfig returns it, so the sites match), as the generator
  /// would have drawn it: every item below config.total_items(), every
  /// write to an item its origin site owns (config.PrimarySite) unless the
  /// workload relaxes ownership, and every operation on an item the origin
  /// replicates (config.HasReplica). Fails naming the first offending
  /// transaction by site and position.
  bool FitsDatabase(const core::SystemConfig& config,
                    std::string* error) const;

  int num_sites() const { return num_sites_; }
  uint64_t total_submissions() const { return total_; }
  const std::vector<ScriptTxn>& site(db::SiteId s) const {
    return per_site_[s];
  }

  // Recorded run identity, for defaulting the replay configuration.
  uint64_t seed() const { return seed_; }
  uint32_t protocol() const { return protocol_; }
  double x() const { return x_; }
  /// Instant of the last scripted submission — with total_submissions(),
  /// the script's effective offered rate.
  double last_submit_time() const { return last_submit_time_; }

 private:
  int num_sites_ = 0;
  uint64_t total_ = 0;
  uint64_t seed_ = 0;
  uint32_t protocol_ = 0;
  double x_ = 0;
  double last_submit_time_ = 0;
  std::vector<std::vector<ScriptTxn>> per_site_;
};

/// WorkloadSource that replays a WorkloadScript: each site's submissions
/// land at the recorded absolute instants (no RNG draws — the site streams
/// stay untouched, exactly as if the generator had drawn them), carrying the
/// recorded operations. Holds per-site cursors, so one instance serves one
/// System run; share the script itself across runs.
class ScriptWorkload final : public core::WorkloadSource {
 public:
  explicit ScriptWorkload(std::shared_ptr<const WorkloadScript> script)
      : script_(std::move(script)), cursor_(script_->num_sites(), 0) {}

  Arrival NextArrival(db::SiteId s, sim::RandomStream* rng) override;
  txn::Transaction NextTxn(db::TxnId id, db::SiteId s,
                           sim::RandomStream* rng) override;

 private:
  std::shared_ptr<const WorkloadScript> script_;
  std::vector<size_t> cursor_;
};

/// Pins the configuration fields the script dictates on top of `base`:
/// num_sites, total_txns = recorded submissions (so the freeze-at-last-
/// submission instant matches the recording), and — unless `keep_seed` —
/// the recorded seed. Everything else (topology, faults, hardware, timeouts,
/// warm-up) stays as `base` says: that is the what-if surface. Bit-exact
/// replay additionally requires those knobs to match the recording run's;
/// the trace does not carry the full configuration.
core::SystemConfig MakeReplayConfig(const WorkloadScript& script,
                                    core::SystemConfig base,
                                    bool keep_seed = false);

/// The full RunSpec replaying `script` under `kind`: MakeReplayConfig'd
/// config plus a workload factory handing each run a fresh ScriptWorkload
/// over the shared script.
core::RunSpec MakeReplaySpec(std::shared_ptr<const WorkloadScript> script,
                             const core::SystemConfig& base,
                             core::ProtocolKind kind, double x = 0,
                             bool keep_seed = false);

}  // namespace lazyrep::replay

#endif  // LAZYREP_REPLAY_WORKLOAD_SCRIPT_H_
