#include "core/system.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "protocols/eager/eager_protocol.h"
#include "protocols/locking_protocol.h"
#include "protocols/optimistic_protocol.h"
#include "protocols/pessimistic_protocol.h"
#include "sim/check.h"

namespace lazyrep::core {

System::System(const SystemConfig& config, ProtocolKind kind)
    : config_(config), kind_(kind) {
  config_.Normalize();
  std::string unsupported;
  LAZYREP_CHECK_MSG(config_.Validate(kind_, &unsupported),
                    unsupported.c_str());
  workload_ = std::make_unique<GeneratedWorkload>(config_);
  versions_ = std::make_unique<db::ReplicaVersions>(config_.placement());
  sites_.reserve(config_.num_sites);
  for (int s = 0; s < config_.num_sites; ++s) {
    sites_.push_back(std::make_unique<Site>(
        &sim_, static_cast<db::SiteId>(s), config_.seed * 1000003 + s,
        versions_.get()));
  }
  // The graph site's endpoint is allocated explicitly from the topology
  // (an auxiliary leaf at the root switch), replacing the historical
  // "endpoint num_sites" convention.
  net::Topology topology = config_.BuildTopology();
  graph_endpoint_ = topology.AddAuxEndpoint(net::AccessEdge(config_.network));
  network_ = std::make_unique<net::Network>(&sim_, std::move(topology),
                                            config_.network);
  if (kind_ == ProtocolKind::kPessimistic ||
      kind_ == ProtocolKind::kOptimistic) {
    graph_cpu_ = std::make_unique<hw::Cpu>(&sim_, "graph_cpu", kCpuMips);
    rgraph_ = std::make_unique<rg::ReplicationGraph>(config_.placement());
    graph_site_ = std::make_unique<rg::GraphSite>(
        &sim_, graph_cpu_.get(), rgraph_.get(), config_.graph_queue_bound,
        config_.timeout);
  }
  tracker_.set_deferred_cascade(kind_ == ProtocolKind::kLocking ||
                                kind_ == ProtocolKind::kEager);
  tracker_.set_on_completed(
      [this](txn::Transaction* t) { OnTrackerCompleted(t); });

  if (config_.fault.enabled()) {
    // Dedicated stream: the injector's draws never perturb the workload or
    // disk streams, so fault-free structure is preserved point for point.
    injector_ = std::make_unique<fault::FaultInjector>(
        &sim_, network_->num_endpoints(), config_.fault,
        config_.seed * 7919 + 13, &network_->topology());
    network_->set_fault_hook([this](db::SiteId src, db::SiteId dst) {
      return injector_->OnDelivery(src, dst);
    });
    channel_ = std::make_unique<fault::ReliableChannel>(
        &sim_, network_.get(), config_.fault, kCtrlMsgBytes);
    channel_->set_charge([this](db::SiteId e) -> sim::Task<void> {
      if (e != graph_endpoint()) {
        co_await site(e).cpu.Execute(kMessageInstr);
      }
    });
    downtime_at_window_.assign(config_.num_sites + 1, 0.0);
    if (config_.fault.amnesia) {
      serving_waiters_.resize(config_.num_sites + 1);
      wals_.reserve(config_.num_sites);
      for (int s = 0; s < config_.num_sites; ++s) {
        wals_.push_back(std::make_unique<fault::SiteWal>(&sites_[s]->disk));
      }
      injector_->set_crash_hook([this](int e) { OnSiteCrash(e); });
      injector_->set_recovery_hook([this](int e) {
        // Defer through a zero-delay callback: FinishRecovery must not run
        // synchronously inside Recover() — the MTBF rotation inspects the
        // recovering flag right after Recover returns and would double-
        // schedule itself (a replay with nothing to scan completes without
        // suspending, and the graph endpoint's is always free).
        sim_.ScheduleCallbackAt(sim_.Now(), [this, e] {
          if (e == graph_endpoint()) {
            // The graph site holds no durable state: recovery is instant.
            injector_->FinishRecovery(e);
            FireServingWaiters(e);
          } else {
            sim_.Spawn(RecoverSiteProcess(e));
          }
        });
      });
    }
  }

  switch (kind_) {
    case ProtocolKind::kLocking:
      protocol_ = std::make_unique<proto::LockingProtocol>(this);
      break;
    case ProtocolKind::kPessimistic:
      protocol_ = std::make_unique<proto::PessimisticProtocol>(this);
      break;
    case ProtocolKind::kOptimistic:
      protocol_ = std::make_unique<proto::OptimisticProtocol>(this);
      break;
    case ProtocolKind::kEager:
      protocol_ = std::make_unique<proto::EagerProtocol>(this);
      break;
  }

  gate_running_.assign(config_.num_sites, 0);
  gate_queue_.resize(config_.num_sites);
  site_submitted_.assign(config_.num_sites, 0);
}

System::~System() = default;

const char* System::protocol_name() const { return ProtocolKindName(kind_); }

std::vector<db::SiteId> System::ReplicaTargets(const txn::Transaction& t,
                                               db::SiteId except) const {
  std::vector<db::SiteId> targets;
  const db::Placement placement = config_.placement();
  if (placement.full()) {
    targets.reserve(config_.num_sites - 1);
    for (int s = 0; s < config_.num_sites; ++s) {
      if (s != except) targets.push_back(static_cast<db::SiteId>(s));
    }
    return targets;
  }
  std::vector<bool> seen(config_.num_sites, false);
  for (db::ItemId item : t.Writes()) {
    placement.ForEachReplica(item, [&](db::SiteId s) {
      if (!seen[s] && s != except) {
        seen[s] = true;
        targets.push_back(s);
      }
    });
  }
  std::sort(targets.begin(), targets.end());
  return targets;
}

void System::NoteCommitted(txn::Transaction* t,
                           sim::SimTime response_reference) {
  LAZYREP_CHECK(t->state == txn::TxnState::kActive);
  t->state = txn::TxnState::kCommitted;
  t->commit_time =
      response_reference >= 0 ? response_reference : sim_.Now();
  metrics_.OnCommit(*t);
  sim::SimTime response_used = t->commit_time;
  t->commit_time = sim_.Now();  // commit->complete measures from the real
                                // commit instant
  if (history_ != nullptr) {
    history_->RecordCommit(t->id, t->ts, t->Writes());
  }
  if (trace_ != nullptr) {
    // The response-reference instant rides along bit-cast so the analyzer
    // reproduces the exact response-time samples Metrics took; the TWR
    // timestamp's time goes in aux_time (ts.txn always equals t->id).
    TraceEvent(trace::EventType::kCommit, *t, t->origin, 0,
               trace::BitsFromDouble(response_used), t->ts.time);
    for (db::ItemId item : t->Writes()) {
      TraceEvent(trace::EventType::kCommitItem, *t, t->origin, item, 0,
                 t->ts.time);
    }
  }
}

void System::NoteAborted(txn::Transaction* t, txn::AbortCause cause) {
  if (t->state == txn::TxnState::kAborted) return;
  LAZYREP_CHECK(t->state == txn::TxnState::kActive);
  t->abort_cause = cause;
  t->terminal_time = sim_.Now();
  metrics_.OnAbort(*t);
  TraceEvent(trace::EventType::kAbort, *t, t->origin, 0,
             static_cast<uint64_t>(cause));
  // Sets the state, then releases the edges: dependents may complete here,
  // after the abort's own sample and record.
  tracker_.OnAborted(t->id);
  site(t->origin).store.RemoveReader(t->id, t->Reads());
  GateRelease(*t);
}

db::Timestamp System::NoteRead(const txn::Transaction& t, db::ItemId item,
                               ConflictEdges* edges) {
  db::ItemStore& store = site(t.origin).store;
  db::Timestamp version =
      edges != nullptr ? store.Read(item, t.id) : store.VersionOf(item);
  if (history_ != nullptr) history_->RecordRead(t.id, item, version);
  TraceEvent(trace::EventType::kRead, t, t.origin, item, version.txn,
             version.time);
  if (edges != nullptr && version.txn != db::kNoTxn) {
    edges->emplace_back(t.id, version.txn);
  }
  return version;
}

void System::set_trace(trace::TraceSink* sink) {
  trace_ = sink;
  for (auto& s : sites_) {
    s->locks.set_trace(sink, static_cast<uint16_t>(s->id));
  }
}

void System::OnTrackerCompleted(txn::Transaction* t) {
  t->terminal_time = sim_.Now();
  metrics_.OnComplete(*t);
  TraceEvent(trace::EventType::kComplete, *t, t->origin);
  site(t->origin).store.RemoveReader(t->id, t->Reads());
  protocol_->OnCompleted(t);
  if (sim::OneShot* shot = std::exchange(t->completion, nullptr)) {
    shot->Fire(sim::WaitStatus::kSignaled);
  }
  GateRelease(*t);
}

void System::GateRelease(const txn::Transaction& t) {
  if (config_.read_gatekeeper <= 0 || t.is_update) return;
  int s = t.origin;
  if (gate_running_[s] > 0) --gate_running_[s];
  if (!gate_queue_[s].empty() &&
      gate_running_[s] < config_.read_gatekeeper) {
    sim::OneShot* next = gate_queue_[s].front();
    gate_queue_[s].pop_front();
    ++gate_running_[s];
    next->Fire(sim::WaitStatus::kSignaled);
  }
}

sim::Process System::GatedExecute(txn::Transaction* t) {
  // §4.3 gatekeeper: bound concurrently executing read-only transactions.
  int s = t->origin;
  if (gate_running_[s] >= config_.read_gatekeeper) {
    sim::OneShot shot(&sim_);
    gate_queue_[s].push_back(&shot);
    co_await shot.Wait();
  } else {
    ++gate_running_[s];
  }
  sim_.Spawn(protocol_->Execute(t));
}

sim::Task<bool> System::Transfer(db::SiteId from, db::SiteId to,
                                 size_t bytes, Retry retry) {
  // With faults off the network has no fault hook and drops nothing.
  if (channel_ == nullptr) return network_->Transfer(from, to, bytes);
  return channel_->Send(from, to, bytes,
                        retry == Retry::kAssured ? fault::kRetryForever
                                                 : config_.fault.max_retries);
}

sim::Task<bool> System::SendCtrl(db::SiteId from, db::SiteId to,
                                 Retry retry) {
  if (from != graph_endpoint()) {
    co_await site(from).cpu.Execute(kMessageInstr);
  }
  bool delivered = co_await Transfer(from, to, kCtrlMsgBytes, retry);
  if (delivered && to != graph_endpoint()) {
    co_await site(to).cpu.Execute(kMessageInstr);
  }
  co_return delivered;
}

sim::Task<bool> System::SendPayload(db::SiteId from, db::SiteId to,
                                    size_t bytes, Retry retry) {
  co_await site(from).cpu.Execute(kMessageInstr);
  bool delivered = co_await Transfer(from, to, bytes, retry);
  co_return delivered;
}

sim::Task<void> System::FanOutCtrl(db::SiteId from,
                                   const std::vector<db::SiteId>& targets,
                                   net::Network::DeliveryFn start_leg) {
  if (channel_ != nullptr) {
    for (db::SiteId dst : targets) start_leg(dst);
    co_return;
  }
  co_await site(from).cpu.Execute(kMessageInstr);
  co_await network_->Multicast(from, targets, kCtrlMsgBytes,
                               std::move(start_leg));
}

sim::Task<sim::WaitStatus> System::ReceiveCtrl(db::SiteId from, db::SiteId to,
                                               Retry retry) {
  if (channel_ == nullptr) return site(to).cpu.Execute(kMessageInstr);
  return SendCtrlLeg(from, to, retry);
}

sim::Task<sim::WaitStatus> System::SendCtrlLeg(db::SiteId from, db::SiteId to,
                                               Retry retry) {
  co_await site(from).cpu.Execute(kMessageInstr);
  bool delivered = co_await Transfer(from, to, kCtrlMsgBytes, retry);
  if (!delivered) co_return sim::WaitStatus::kCancelled;
  co_await site(to).cpu.Execute(kMessageInstr);
  co_return sim::WaitStatus::kSignaled;
}

sim::Task<void> System::FanOutPayload(db::SiteId from,
                                      const std::vector<db::SiteId>& targets,
                                      size_t bytes, Retry retry,
                                      net::Network::DeliveryFn on_delivered) {
  if (channel_ != nullptr) {
    // The legs outlive this frame, so they share the callback.
    auto shared = std::make_shared<net::Network::DeliveryFn>(
        std::move(on_delivered));
    for (db::SiteId dst : targets) {
      sim_.Spawn(PayloadLeg(from, dst, bytes, retry, shared));
    }
    co_return;
  }
  co_await site(from).cpu.Execute(kMessageInstr);
  co_await network_->Multicast(from, targets, bytes, std::move(on_delivered));
}

sim::Process System::PayloadLeg(
    db::SiteId from, db::SiteId to, size_t bytes, Retry retry,
    std::shared_ptr<net::Network::DeliveryFn> on_delivered) {
  co_await site(from).cpu.Execute(kMessageInstr);
  bool delivered = co_await Transfer(from, to, bytes, retry);
  if (delivered) (*on_delivered)(to);
}

sim::Task<void> System::AwaitServing(int e) {
  if (!amnesia()) co_return;
  while (!injector_->IsUp(e) || injector_->Recovering(e)) {
    sim::OneShot shot(&sim_);
    serving_waiters_[e].push_back(&shot);
    co_await shot.Wait();
  }
}

void System::AppendRedoRecords(db::SiteId s, const txn::Transaction& t) {
  fault::SiteWal* w = wals_[s].get();
  for (db::ItemId item : t.Writes()) {
    if (config_.HasReplica(item, s)) w->Append(kItemBytes);
  }
}

sim::Task<bool> System::CommitWrites(txn::Transaction* t) {
  if (!amnesia()) {
    // Conflict edges of the origin apply deliver instantly: every party
    // (co-owners by the ownership rule, local readers) executes here. Only
    // updates commit through here; read-only commits force no log.
    co_await ApplyWrites(t->origin, *t, /*at_origin=*/true);
    co_await site(t->origin).disk.ForceLog(kLogBytes);
    co_return true;
  }
  if (LostToCrash(*t)) co_return false;  // already wiped: nothing to commit
  fault::SiteWal* w = wals_[t->origin].get();
  AppendRedoRecords(t->origin, *t);
  w->Append(0);  // the commit record
  bool forced = co_await w->Force();
  // A crash between the append and the force's completion loses the commit
  // record even if the platter write finished in some interleaving: only a
  // force completed within the transaction's birth epoch commits.
  if (!forced || LostToCrash(*t)) co_return false;
  t->commit_durable = true;
  co_await ApplyWrites(t->origin, *t, /*at_origin=*/true);
  co_return true;
}

void System::OnSiteCrash(int e) {
  if (e == graph_endpoint()) {
    // The graph site keeps no replicas and no locks; its crash stays
    // fail-silent (RGtest requests simply go unanswered until recovery).
    return;
  }
  fault::SiteWal* w = wals_[e].get();
  w->OnCrash();  // bumps the site's epoch
  site(static_cast<db::SiteId>(e))
      .locks.CrashReset([this, e, w](db::TxnId id) {
        // Survivors of the wipe: 2PC participants with a durable prepare
        // record (their X locks are re-acquired from the log — the in-doubt
        // protocol forbids releasing them unilaterally), and transactions
        // that committed here with a durable commit record (their strict-2PL
        // holds are part of the logged state recovery re-establishes).
        if (w->InDoubt(id)) return true;
        txn::Transaction* t = FindTxn(id);
        return t != nullptr && t->origin == e &&
               (t->commit_durable || t->state == txn::TxnState::kCommitted);
      });
}

sim::Process System::RecoverSiteProcess(int e) {
  if (!injector_->Recovering(e)) co_return;  // re-crashed before we started
  uint32_t epoch = SiteEpoch(e);
  sim::SimTime start = sim_.Now();
  Site& st = site(static_cast<db::SiteId>(e));
  fault::SiteWal* w = wals_[e].get();
  size_t bytes = w->replay_bytes();
  uint64_t records = w->replay_records();
  // Analysis + redo: sequentially scan the log back to the last durable
  // checkpoint, then re-apply each redo record's CPU work. The in-doubt set
  // and store state need no explicit reconstruction — the simulation kept
  // them (they model exactly what the log would rebuild).
  if (bytes > 0) co_await st.disk.ReadLog(bytes);
  double replay_instr =
      fault::kReplayInstrPerRecord * static_cast<double>(records);
  if (replay_instr > 0) co_await st.cpu.Execute(replay_instr);
  if (SiteEpoch(e) != epoch || !injector_->Recovering(e)) {
    co_return;  // re-crashed mid-replay (or the run ended): abandon
  }
  w->OnReplayComplete();
  ++site_recoveries_;
  recovery_replay_.Add(sim_.Now() - start);
  injector_->FinishRecovery(e);
  FireServingWaiters(e);
}

sim::Process System::CheckpointProcess(db::SiteId s) {
  // Phase-offset the fleet so the checkpoints of different sites do not
  // synchronize into one disk-force convoy.
  double interval = config_.fault.checkpoint_interval;
  co_await sim_.Delay(interval * (s + 1) / (config_.num_sites + 1.0));
  while (!done_) {
    co_await sim_.Delay(interval);
    if (done_) break;
    if (!injector_->IsUp(s) || injector_->Recovering(s)) continue;
    fault::SiteWal* w = wals_[s].get();
    w->Append(0);  // the checkpoint record
    // Only a force that completed crash-free moves the replay horizon.
    bool durable = co_await w->Force();
    if (durable) w->OnCheckpointDurable();
  }
}

void System::FireServingWaiters(int e) {
  if (serving_waiters_.empty()) return;
  std::vector<sim::OneShot*> waiters;
  waiters.swap(serving_waiters_[e]);
  for (sim::OneShot* shot : waiters) shot->Fire(sim::WaitStatus::kSignaled);
}

bool System::ReplicasConverged(std::string* why) {
  for (int item = 0; item < config_.total_items(); ++item) {
    db::ItemId id = static_cast<db::ItemId>(item);
    bool have = false;
    db::Timestamp ref{};
    int ref_site = -1;
    for (int s = 0; s < config_.num_sites; ++s) {
      if (!config_.HasReplica(id, static_cast<db::SiteId>(s))) continue;
      db::Timestamp v = site(static_cast<db::SiteId>(s)).store.VersionOf(id);
      if (!have) {
        have = true;
        ref = v;
        ref_site = s;
        continue;
      }
      if (v != ref) {
        if (why != nullptr) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "item %d: site %d holds txn %llu @%.6f but site %d "
                        "holds txn %llu @%.6f",
                        item, ref_site, (unsigned long long)ref.txn, ref.time,
                        s, (unsigned long long)v.txn, v.time);
          *why = buf;
        }
        return false;
      }
    }
  }
  return true;
}

void System::DeliverEdges(const ConflictEdges& edges) {
  for (const auto& [dep, pred] : edges) {
    if (tracker_.IsLive(dep)) tracker_.AddPredecessor(dep, pred);
  }
}

bool System::HasStaleWriteVsTerminal(const txn::Transaction& t) {
  const db::ItemStore& store = site(t.origin).store;
  for (db::ItemId item : t.Writes()) {
    db::Timestamp current = store.VersionOf(item);
    if (current <= t.ts) continue;
    // Relaxed ownership (footnote 2): writers no longer co-originate, so
    // the reverse-edge fix for a masked write cannot reach the completion
    // fixpoint race-free; abort on any masking instead ("timestamp too
    // old", as a classic timestamp-ordering scheduler would).
    if (config_.workload.relaxed_ownership) return true;
    if (tracker_.IsTerminal(current.txn)) return true;
  }
  return false;
}

bool System::HasTornReads(const ReadVersions& reads) {
  for (const auto& [item2, v2] : reads) {
    if (v2.txn == db::kNoTxn) continue;
    const txn::Transaction* w = FindTxn(v2.txn);
    if (w == nullptr) continue;
    for (const auto& [item, v] : reads) {
      if (v >= w->ts) continue;  // read at or past W's version: consistent
      for (db::ItemId wi : w->Writes()) {
        if (wi == item) return true;  // read pre-W `item`, post-W `item2`
      }
    }
  }
  return false;
}

bool System::HasInvalidatedReads(db::SiteId origin,
                                 const ReadVersions& reads) {
  const db::ItemStore& store = site(origin).store;
  for (const auto& [item, v] : reads) {
    if (store.VersionOf(item) != v) return true;  // overwritten since read
  }
  return false;
}

sim::Task<System::ConflictEdges> System::ApplyWrites(db::SiteId s,
                                                     const txn::Transaction& t,
                                                     bool at_origin) {
  // Mutate the store synchronously: no awaits between item applies, so no
  // concurrent apply at this site can interleave with the version checks.
  ConflictEdges edges;
  Site& st = site(s);
  int pages = 0;
  for (db::ItemId item : t.Writes()) {
    if (!config_.HasReplica(item, s)) continue;
    db::ItemStore::WriteResult r = st.store.ApplyWrite(item, t.ts);
    ++pages;
    if (r.applied) {
      if (r.other_writer != db::kNoTxn) {
        edges.emplace_back(t.id, r.other_writer);  // ww: prior writer first
      }
      for (db::TxnId reader : r.prior_readers) {
        edges.emplace_back(t.id, reader);  // rw: prior readers first
      }
    } else {
      // TWR-ignored: t logically precedes the newer writer, so that writer
      // must not complete before t does.
      edges.emplace_back(r.other_writer, t.id);
    }
  }
  if (at_origin) {
    // All conflicting transactions on these edges executed at the
    // origination site itself (writers by the ownership rule, readers
    // because reads happen only at the origin), so the tracker learns them
    // without any message latency.
    DeliverEdges(edges);
    edges.clear();
  }
  for (int i = 0; i < pages; ++i) {
    co_await st.disk.WritePage(kItemBytes);
  }
  co_return edges;
}

void System::Submit(db::SiteId s, sim::RandomStream* rng) {
  db::TxnId id = ++submitted_;
  txn::Transaction t = workload_->NextTxn(id, s, rng);
  t.submit_time = sim_.Now();
  t.ts = db::Timestamp{sim_.Now(), id};
  t.born_epoch = SiteEpoch(s);
  ++site_submitted_[s];
  if (!window_open_ &&
      submitted_ >=
          static_cast<uint64_t>(config_.warmup_per_site) * config_.num_sites) {
    window_open_ = true;
    window_start_ = sim_.Now();
    ResetAllStats();
  }
  t.measured = window_open_ && site_submitted_[s] > config_.warmup_per_site;

  txn::Transaction* ptr = tracker_.Register(std::move(t));
  metrics_.OnSubmit(*ptr);
  TraceEvent(trace::EventType::kSubmit, *ptr, s, 0, ptr->ops.size());
  if (trace_ != nullptr) {
    // The op-level access set (v2): what makes the trace replayable.
    for (const db::Operation& op : ptr->ops) {
      TraceEvent(trace::EventType::kSubmitOp, *ptr, s, op.item,
                 op.type == db::OpType::kWrite ? 1 : 0);
    }
  }

  if (injector_ && !injector_->IsUp(s)) {
    // The origination site is down: the client's request never reaches a
    // server, so the transaction fails immediately as unavailable. Balance
    // the gate slot NoteAborted's GateRelease will return.
    if (config_.read_gatekeeper > 0 && !ptr->is_update) ++gate_running_[s];
    NoteAborted(ptr, txn::AbortCause::kUnavailable);
    if (submitted_ >= config_.total_txns) done_ = true;
    return;
  }

  bool gated = config_.read_gatekeeper > 0 && !ptr->is_update;
  if (gated) {
    sim_.Spawn(GatedExecute(ptr));
  } else {
    sim_.Spawn(protocol_->Execute(ptr));
  }
  if (submitted_ >= config_.total_txns) done_ = true;
}

sim::Process System::GeneratorProcess(db::SiteId s, sim::RandomStream rng) {
  while (!done_) {
    WorkloadSource::Arrival next = workload_->NextArrival(s, &rng);
    if (!next.has) break;
    if (next.absolute) {
      co_await sim_.DelayUntil(next.at);
    } else {
      co_await sim_.Delay(next.at);
    }
    if (done_) break;
    Submit(s, &rng);
  }
}

void System::ResetAllStats() {
  for (auto& s : sites_) {
    s->cpu.ResetStats();
    s->disk.ResetStats();
    s->locks.ResetStats();
  }
  network_->ResetStats();
  if (graph_cpu_) graph_cpu_->ResetStats();
  if (injector_) {
    injector_->ResetStats();
    for (int e = 0; e <= config_.num_sites; ++e) {
      downtime_at_window_[e] = injector_->Downtime(e);
    }
  }
  if (channel_) channel_->ResetStats();
  for (auto& w : wals_) w->ResetStats();
  site_recoveries_ = 0;
  recovery_replay_.Clear();
  catchup_installs_ = 0;
  indoubt_commit_ = 0;
  indoubt_abort_ = 0;
}

void System::Freeze(MetricsSnapshot* snap) {
  snap->duration = sim_.Now() - window_start_;
  if (snap->duration <= 0) snap->duration = 1e-9;
  snap->completed_tps = snap->completed / snap->duration;
  snap->abort_rate =
      snap->submitted > 0
          ? static_cast<double>(snap->aborted) / snap->submitted
          : 0;
  double cpu_sum = 0, cpu_max = 0, disk_sum = 0, disk_max = 0;
  uint64_t lock_waits = 0, lock_timeouts = 0, twr_ignored = 0;
  for (auto& s : sites_) {
    double cu = s->cpu.Utilization();
    double du = s->disk.Utilization();
    cpu_sum += cu;
    disk_sum += du;
    cpu_max = std::max(cpu_max, cu);
    disk_max = std::max(disk_max, du);
    lock_waits += s->locks.waits();
    lock_timeouts += s->locks.timeouts();
    twr_ignored += s->store.writes_ignored();
  }
  snap->mean_site_cpu_utilization = cpu_sum / sites_.size();
  snap->max_site_cpu_utilization = cpu_max;
  snap->mean_disk_utilization = disk_sum / sites_.size();
  snap->max_disk_utilization = disk_max;
  snap->mean_network_utilization = network_->MeanUtilization();
  snap->max_network_utilization = network_->MaxUtilization();
  snap->lock_waits = lock_waits;
  snap->lock_timeouts = lock_timeouts;
  snap->writes_ignored_twr = twr_ignored;
  if (graph_site_) {
    snap->graph_cpu_utilization = graph_cpu_->Utilization();
    snap->graph_cpu_queue = graph_cpu_->MeanQueueLength();
    snap->graph_tests = graph_site_->tests_run();
    snap->graph_waits = graph_site_->waits();
    snap->graph_wait_timeouts = graph_site_->wait_timeouts();
    snap->graph_rejections = graph_site_->rejections();
    snap->graph_cycle_aborts = graph_site_->cycle_aborts();
  }
  snap->in_flight_at_end = tracker_.live_count();
  if (injector_) {
    snap->faults_injected_loss = injector_->messages_dropped();
    snap->faults_injected_dup = injector_->messages_duplicated();
    snap->site_crashes = injector_->crashes();
    double avail_sum = 0, avail_min = 1.0;
    for (int e = 0; e < config_.num_sites; ++e) {
      double down = injector_->Downtime(e) - downtime_at_window_[e];
      double avail = 1.0 - std::min(1.0, std::max(0.0, down) / snap->duration);
      avail_sum += avail;
      avail_min = std::min(avail_min, avail);
    }
    snap->mean_site_availability = avail_sum / config_.num_sites;
    snap->min_site_availability = avail_min;
    double gdown = injector_->Downtime(config_.num_sites) -
                   downtime_at_window_[config_.num_sites];
    snap->graph_availability =
        1.0 - std::min(1.0, std::max(0.0, gdown) / snap->duration);
    snap->partitions_injected = injector_->partitions_activated();
    snap->faults_injected_partition = injector_->partition_drops();
  }
  if (channel_) {
    snap->retransmissions = channel_->retransmissions();
    snap->msg_send_failures = channel_->send_failures();
  }
  if (amnesia()) {
    snap->site_recoveries = site_recoveries_;
    snap->recovery_replay = recovery_replay_;
    snap->catchup_installs = catchup_installs_;
    snap->indoubt_resolved_commit = indoubt_commit_;
    snap->indoubt_resolved_abort = indoubt_abort_;
    for (auto& w : wals_) {
      snap->wal_forces += w->forces();
      snap->wal_bytes_forced += w->bytes_forced();
      snap->wal_checkpoints += w->checkpoints();
      snap->wal_records_replayed += w->records_replayed();
      snap->wal_bytes_replayed += w->bytes_replayed();
    }
  }
}

MetricsSnapshot System::Run() {
  if (injector_) injector_->Start();
  if (amnesia()) {
    for (int s = 0; s < config_.num_sites; ++s) {
      sim_.Spawn(CheckpointProcess(static_cast<db::SiteId>(s)));
    }
  }
  sim::RandomStream seeder(config_.seed);
  for (int s = 0; s < config_.num_sites; ++s) {
    sim_.Spawn(GeneratorProcess(static_cast<db::SiteId>(s), seeder.Fork()));
  }
  // The paper takes final measurements when the last transaction is
  // submitted, avoiding wind-down effects.
  while (!done_ && sim_.Step()) {
  }
  MetricsSnapshot snap = metrics_.snapshot();
  Freeze(&snap);
  // Records emitted from here on (the drain) belong to the execution
  // history but to no MetricsSnapshot counter; mark them so the offline
  // analyzer replicates the freeze-at-last-submission accounting.
  if (trace_ != nullptr) trace_->set_frozen(true);
  // Cease fault activity before draining: pending retransmissions must be
  // able to land so every waiter resolves before the System is torn down.
  if (injector_) injector_->Stop();
  // Stop() force-revived every endpoint; release any catch-up coroutines
  // still parked on a serving wait so the drain can complete them.
  for (size_t e = 0; e < serving_waiters_.size(); ++e) {
    FireServingWaiters(static_cast<int>(e));
  }
  // Drain in-flight work (uncounted — the snapshot is frozen) so coroutine
  // frames and waiters resolve before the System is torn down. A generous
  // horizon guards against pathological non-termination.
  sim_.Run(sim_.Now() + 120.0);
  return snap;
}

}  // namespace lazyrep::core
