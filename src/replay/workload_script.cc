#include "replay/workload_script.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "sim/check.h"

namespace lazyrep::replay {

bool WorkloadScript::FromPoint(const trace::PointTrace& pt,
                               uint32_t trace_version, WorkloadScript* out,
                               std::string* error) {
  auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  if (trace_version < 2) {
    return fail("trace version " + std::to_string(trace_version) +
                " predates the op-level access set (kSubmitOp, v2); "
                "re-capture with --trace to replay");
  }
  if (pt.header.num_sites == 0) {
    return fail("point " + std::to_string(pt.header.point_index) +
                " has no sites");
  }
  out->num_sites_ = static_cast<int>(pt.header.num_sites);
  out->total_ = 0;
  out->seed_ = pt.header.seed;
  out->protocol_ = pt.header.protocol;
  out->x_ = pt.header.x;
  out->per_site_.assign(out->num_sites_, {});

  // Where each submitted txn's ScriptTxn lives, plus the op count its
  // kSubmit announced. kSubmitOp records follow their kSubmit contiguously
  // in the emission order, but keying by txn id keeps the extraction robust
  // to any interleaving a future emitter might produce.
  struct Open {
    db::SiteId site = 0;
    size_t index = 0;
    uint64_t announced_ops = 0;
  };
  std::unordered_map<uint64_t, Open> open;
  for (size_t i = 0; i < pt.records.size(); ++i) {
    const trace::Record& r = pt.records[i];
    if (r.type == static_cast<uint8_t>(trace::EventType::kSubmit)) {
      if (r.site >= pt.header.num_sites) {
        return fail("submit record of txn " + std::to_string(r.txn) +
                    " at non-site endpoint " + std::to_string(r.site));
      }
      // The announced count sizes the op list, so it may not exceed the
      // records left to deliver those ops.
      const size_t left = pt.records.size() - i - 1;
      if (r.aux > left) {
        return fail("txn " + std::to_string(r.txn) + " announces " +
                    std::to_string(r.aux) + " ops but only " +
                    std::to_string(left) +
                    " records follow in its point — truncated or corrupt "
                    "capture");
      }
      // The event loop cannot order a NaN instant, and DelayUntil would move
      // a negative one silently to the run's start.
      if (!std::isfinite(r.time) || r.time < 0) {
        return fail("txn " + std::to_string(r.txn) + " is submitted at t=" +
                    std::to_string(r.time) + ", not a finite instant >= 0");
      }
      std::vector<ScriptTxn>& seq = out->per_site_[r.site];
      ScriptTxn st;
      st.submit_time = r.time;
      st.is_update = (r.flags & trace::kFlagUpdate) != 0;
      st.ops.reserve(r.aux);
      seq.push_back(std::move(st));
      open[r.txn] = Open{r.site, seq.size() - 1, r.aux};
      ++out->total_;
    } else if (r.type == static_cast<uint8_t>(trace::EventType::kSubmitOp)) {
      auto it = open.find(r.txn);
      if (it == open.end()) {
        return fail("kSubmitOp of txn " + std::to_string(r.txn) +
                    " precedes its kSubmit");
      }
      // A transaction names each item once, as the generator draws them: the
      // lock manager takes a second request for a held lock as a bug.
      std::vector<db::Operation>& ops =
          out->per_site_[it->second.site][it->second.index].ops;
      if (std::ranges::find(ops, r.item, &db::Operation::item) != ops.end()) {
        return fail("txn " + std::to_string(r.txn) + " names item " +
                    std::to_string(r.item) + " twice");
      }
      db::Operation op;
      op.item = r.item;
      op.type = (r.aux & 1) != 0 ? db::OpType::kWrite : db::OpType::kRead;
      ops.push_back(op);
    }
  }
  if (out->total_ == 0) {
    return fail("point " + std::to_string(pt.header.point_index) +
                " recorded no submissions; nothing to replay");
  }
  // Replay feeds each site's submit times to sim::Simulation::DelayUntil in
  // script order, and DelayUntil clamps an already-passed instant to the
  // current time — a regressing sequence would be *silently* reshaped
  // rather than reproduced. A capture emits kSubmit records in simulation
  // order, so a regression means a corrupt or hand-edited trace: reject it
  // here with the site and both offending timestamps, not downstream where
  // the clamp hides it.
  for (size_t s = 0; s < out->per_site_.size(); ++s) {
    const std::vector<ScriptTxn>& seq = out->per_site_[s];
    for (size_t i = 1; i < seq.size(); ++i) {
      if (seq[i].submit_time < seq[i - 1].submit_time) {
        return fail("site " + std::to_string(s) +
                    " submit times regress: txn #" + std::to_string(i) +
                    " at t=" + std::to_string(seq[i].submit_time) +
                    " precedes txn #" + std::to_string(i - 1) + " at t=" +
                    std::to_string(seq[i - 1].submit_time) +
                    " — corrupt or reordered capture");
      }
    }
    if (!seq.empty() && seq.back().submit_time > out->last_submit_time_) {
      out->last_submit_time_ = seq.back().submit_time;
    }
  }
  for (const auto& [txn, o] : open) {
    const ScriptTxn& st = out->per_site_[o.site][o.index];
    if (st.ops.size() != o.announced_ops) {
      return fail("txn " + std::to_string(txn) + " announced " +
                  std::to_string(o.announced_ops) + " ops but recorded " +
                  std::to_string(st.ops.size()) +
                  " kSubmitOp records — truncated or pre-v2 capture");
    }
    // The protocols take an update's path exactly when it writes (the
    // replication graph rejects a write by a read-only transaction).
    const bool writes =
        std::any_of(st.ops.begin(), st.ops.end(), [](const db::Operation& op) {
          return op.type == db::OpType::kWrite;
        });
    if (writes != st.is_update) {
      return fail("txn " + std::to_string(txn) +
                  (st.is_update ? " is flagged update but writes nothing"
                                : " is flagged read-only but writes"));
    }
  }
  return true;
}

bool WorkloadScript::FitsDatabase(const core::SystemConfig& config,
                                  std::string* error) const {
  auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  const auto items = static_cast<uint64_t>(config.total_items());
  for (int s = 0; s < num_sites_; ++s) {
    for (size_t i = 0; i < per_site_[s].size(); ++i) {
      const std::string txn =
          "site " + std::to_string(s) + " txn #" + std::to_string(i);
      for (const db::Operation& op : per_site_[s][i].ops) {
        if (op.item >= items) {
          return fail(txn + " names item " + std::to_string(op.item) +
                      " beyond the database's " + std::to_string(items) +
                      " items");
        }
        const db::SiteId owner = config.PrimarySite(op.item);
        if (op.type == db::OpType::kWrite && owner != s &&
            !config.workload.relaxed_ownership) {
          return fail(txn + " writes item " + std::to_string(op.item) +
                      ", which site " + std::to_string(owner) +
                      " owns, and ownership is not relaxed");
        }
        if (!config.HasReplica(op.item, s)) {
          return fail(txn +
                      (op.type == db::OpType::kRead ? " reads" : " writes") +
                      " item " + std::to_string(op.item) +
                      ", of which it holds no replica");
        }
      }
    }
  }
  return true;
}

core::WorkloadSource::Arrival ScriptWorkload::NextArrival(
    db::SiteId s, sim::RandomStream* /*rng*/) {
  const std::vector<ScriptTxn>& seq = script_->site(s);
  if (cursor_[s] >= seq.size()) return Arrival{};
  return Arrival{true, seq[cursor_[s]].submit_time, /*absolute=*/true};
}

txn::Transaction ScriptWorkload::NextTxn(db::TxnId id, db::SiteId s,
                                         sim::RandomStream* /*rng*/) {
  const std::vector<ScriptTxn>& seq = script_->site(s);
  char why[96];
  std::snprintf(why, sizeof(why),
                "site %u: NextTxn past end of script (cursor %zu, %zu txns)",
                static_cast<unsigned>(s), cursor_[s], seq.size());
  LAZYREP_CHECK_MSG(cursor_[s] < seq.size(), why);
  const ScriptTxn& st = seq[cursor_[s]++];
  txn::Transaction t;
  t.id = id;
  t.origin = s;
  t.is_update = st.is_update;
  t.ops = st.ops;
  return t;
}

core::SystemConfig MakeReplayConfig(const WorkloadScript& script,
                                    core::SystemConfig base, bool keep_seed) {
  base.num_sites = script.num_sites();
  base.total_txns = script.total_submissions();
  if (!keep_seed) base.seed = script.seed();
  // The script dictates the offered load; base.tps only feeds the Poisson
  // generator a replay never consults, so pin it to the script's effective
  // rate purely so the printed/CSV "TPS offered" is honest.
  if (script.last_submit_time() > 0) {
    base.tps = static_cast<double>(script.total_submissions()) /
               script.last_submit_time();
  }
  base.Normalize();
  return base;
}

core::RunSpec MakeReplaySpec(std::shared_ptr<const WorkloadScript> script,
                             const core::SystemConfig& base,
                             core::ProtocolKind kind, double x,
                             bool keep_seed) {
  core::RunSpec spec;
  spec.config = MakeReplayConfig(*script, base, keep_seed);
  spec.protocol = kind;
  spec.x = x;
  spec.make_workload = [script]() -> std::unique_ptr<core::WorkloadSource> {
    return std::make_unique<ScriptWorkload>(script);
  };
  return spec;
}

}  // namespace lazyrep::replay
