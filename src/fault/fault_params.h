#ifndef LAZYREP_FAULT_FAULT_PARAMS_H_
#define LAZYREP_FAULT_FAULT_PARAMS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.h"

namespace lazyrep::fault {

/// A deterministic one-shot outage: `endpoint` is unreachable during
/// [at, at + duration). Endpoint indices follow the star network: database
/// sites are 0..num_sites-1 and the graph site is endpoint num_sites.
struct ScheduledCrash {
  int endpoint = 0;
  double at = 0;
  double duration = 0;
};

/// A deterministic network partition: during [at, at + duration) every
/// delivery leg crossing an island boundary is dropped at the switch.
/// Endpoints stay up — no state is lost — so healing needs no recovery,
/// only retransmission.
///
/// Islands come in two (mutually exclusive) spellings:
///  * `group`: an explicit endpoint list; those endpoints form one island,
///    everything else forms the other (the historical site-group syntax).
///  * `groups`: named topology groups ("dc0", "dc1.m0", ...); each name cuts
///    its subtree's uplink edges, isolating it as its own island, with all
///    remaining endpoints forming one final island. Requires a topology and
///    is validated against it (unknown names and overlapping halves are
///    hard errors at every entry point).
struct ScheduledPartition {
  std::vector<int> group;
  double at = 0;
  double duration = 0;
  std::vector<std::string> groups;
};

/// Growth of the reliable channel's retransmission timeout per retry.
inline constexpr double kRtoBackoff = 2.0;
/// Cap on the retransmission timeout, seconds.
inline constexpr double kRtoMax = 1.0;

/// Fault-injection knobs. All default to zero / empty: with the defaults the
/// injector is never constructed and every simulated run is bit-identical to
/// the fault-free model.
struct FaultParams {
  // -- message faults ---------------------------------------------------------
  /// Probability that one delivery leg (point-to-point transfer or one
  /// multicast leg) is dropped at the switch.
  double loss_prob = 0;
  /// Probability that a delivered leg is duplicated. The duplicate occupies
  /// the receiver's incoming link a second time; the payload is still handed
  /// to the protocol once, because a reliable-channel send resolves once.
  double dup_prob = 0;

  // -- site crash / recovery --------------------------------------------------
  /// Mean time between failures per database site, seconds (exponential).
  /// 0 disables MTBF-driven crashes.
  double site_mtbf = 0;
  /// Mean outage duration, seconds (exponential). Used with site_mtbf; must
  /// be > 0 whenever site_mtbf > 0 (enforced by Validate()).
  double site_mttr = 1.0;
  /// Include the dedicated graph site in the MTBF crash rotation.
  bool crash_graph_site = false;
  /// Deterministic scripted outages (tests, targeted experiments). Windows
  /// on the same endpoint must not overlap (enforced by Validate()).
  std::vector<ScheduledCrash> crashes;
  /// Deterministic scripted group partitions.
  std::vector<ScheduledPartition> partitions;

  // -- crash semantics --------------------------------------------------------
  /// When true, a crash wipes the site's volatile state (in-flight local
  /// transactions abort, the lock manager resets, the unforced log tail is
  /// lost) and recovery runs a costed redo replay from the site's
  /// write-ahead log before the site serves traffic again. When false, the
  /// legacy fail-silent model applies: the endpoint only drops messages
  /// while down and resumes with state intact — kept for comparison runs and
  /// to preserve existing study references byte-for-byte.
  bool amnesia = false;
  /// Interval between fuzzy checkpoints per site, seconds (amnesia mode).
  double checkpoint_interval = 2.0;

  // -- reliable-messaging retry policy ---------------------------------------
  /// Retransmissions allowed for pre-commit control traffic before the
  /// sender gives up and the transaction aborts as unavailable. Post-commit
  /// traffic (replica propagation, completion notices, cleanup) retries
  /// without bound — it is idempotent and must eventually be delivered.
  int max_retries = 5;
  /// Initial retransmission timeout, seconds; grows by kRtoBackoff per
  /// retry, up to kRtoMax.
  double rto_initial = 0.05;

  /// True when any fault mechanism is active. Gates the whole subsystem:
  /// when false, the network hook is not installed and all protocols use
  /// the original (ack-free) message paths.
  bool enabled() const {
    return loss_prob > 0 || dup_prob > 0 || site_mtbf > 0 ||
           !crashes.empty() || !partitions.empty();
  }

  /// Checks the parameter set for contradictions: probabilities outside
  /// [0,1], site_mtbf > 0 with site_mttr <= 0 (the rotation would divide its
  /// recovery draw by zero), overlapping scripted crash windows on one
  /// endpoint (undefined crash/recover interleaving), malformed partitions
  /// and retry policy. Returns true when consistent; otherwise fills `error`
  /// with a human-readable description of the first problem found.
  bool Validate(std::string* error) const;

  /// Topology-aware validation: everything Validate() checks, plus named
  /// partition groups must exist in `topology`, partition islands must not
  /// overlap, and endpoint indices (partitions, scripted crashes) must be
  /// within the topology's endpoint range.
  bool Validate(const net::Topology& topology, std::string* error) const;
};

}  // namespace lazyrep::fault

#endif  // LAZYREP_FAULT_FAULT_PARAMS_H_
