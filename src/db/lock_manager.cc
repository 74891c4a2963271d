#include "db/lock_manager.h"

#include <algorithm>

#include "sim/check.h"

namespace lazyrep::db {

void LockManager::WaiterQueue::PushBack(Waiter* w) {
  w->next = nullptr;
  if (tail == nullptr) {
    head = tail = w;
  } else {
    tail->next = w;
    tail = w;
  }
  ++size;
}

LockManager::Waiter* LockManager::WaiterQueue::PopFront() {
  Waiter* w = head;
  head = w->next;
  if (head == nullptr) tail = nullptr;
  w->next = nullptr;
  --size;
  return w;
}

bool LockManager::WaiterQueue::Remove(Waiter* w) {
  Waiter* prev = nullptr;
  for (Waiter* cur = head; cur != nullptr; prev = cur, cur = cur->next) {
    if (cur != w) continue;
    if (prev == nullptr) {
      head = cur->next;
    } else {
      prev->next = cur->next;
    }
    if (tail == cur) tail = prev;
    cur->next = nullptr;
    --size;
    return true;
  }
  return false;
}

bool LockManager::CompatibleWithHolders(const ItemLock& lock, LockMode mode) {
  for (const auto& [holder, held_mode] : lock.holders) {
    if (!LocksCompatible(mode, held_mode)) return false;
  }
  return true;
}

sim::Task<sim::WaitStatus> LockManager::Acquire(TxnId txn, ItemId item,
                                                LockMode mode,
                                                sim::SimTime timeout) {
  ItemLock& lock = LockFor(item);
  for (const auto& [holder, held_mode] : lock.holders) {
    LAZYREP_CHECK_MSG(holder != txn,
                      "transaction requests a lock it already holds here");
  }
  // Immediate grant: compatible with every holder and no earlier waiter
  // pending (FIFO fairness).
  if (lock.queue.empty() && CompatibleWithHolders(lock, mode)) {
    lock.holders.emplace_back(txn, mode);
    HeldFor(txn).push_back(item);
    ++grants_;
    TraceResolution(txn, item, mode, sim::WaitStatus::kSignaled, 0);
    return sim::Task<sim::WaitStatus>::Finished(sim::WaitStatus::kSignaled);
  }
  return QueueAndWait(txn, item, mode, timeout);
}

sim::Task<sim::WaitStatus> LockManager::QueueAndWait(TxnId txn, ItemId item,
                                                     LockMode mode,
                                                     sim::SimTime timeout) {
  ++waits_;
  Waiter waiter(sim_);
  waiter.txn = txn;
  waiter.mode = mode;
  LockFor(item).queue.PushBack(&waiter);

  sim::SimTime wait_start = sim_->Now();
  sim::WaitStatus status = co_await waiter.shot.Wait(timeout);

  if (status != sim::WaitStatus::kSignaled) {
    if (status == sim::WaitStatus::kTimeout) ++timeouts_;
    // Remove ourselves from the queue; the lock entry may need pumping since
    // our departure can unblock requests behind us.
    ItemLock& lk = LockFor(item);
    lk.queue.Remove(&waiter);
    PumpQueue(item, &lk);
    MaybeErase(item);
    TraceResolution(txn, item, mode, status, sim_->Now() - wait_start);
    co_return status;
  }

  // Granted by PumpQueue (which installed us as a holder).
  ++grants_;
  TraceResolution(txn, item, mode, status, sim_->Now() - wait_start);
  co_return sim::WaitStatus::kSignaled;
}

void LockManager::PumpQueue(ItemId item, ItemLock* lock) {
  while (!lock->queue.empty()) {
    Waiter* head = lock->queue.head;
    if (!CompatibleWithHolders(*lock, head->mode)) break;
    lock->queue.PopFront();
    lock->holders.emplace_back(head->txn, head->mode);
    HeldFor(head->txn).push_back(item);
    head->shot.Fire(sim::WaitStatus::kSignaled);
  }
}

void LockManager::MaybeErase(ItemId item) {
  auto it = locks_.find(item);
  if (it != locks_.end() && it->second.holders.empty() &&
      it->second.queue.empty()) {
    KeepSpare(locks_.extract(it));
  }
}

namespace {

/// map[key], building a missing entry from a spare node when there is one;
/// the map inserts it exactly where operator[] would have.
template <typename Map>
typename Map::mapped_type& EntryFor(
    Map& map, std::vector<typename Map::node_type>& spares,
    typename Map::key_type key) {
  auto it = map.find(key);
  if (it != map.end()) return it->second;
  if (spares.empty()) return map[key];
  typename Map::node_type node = std::move(spares.back());
  spares.pop_back();
  node.key() = key;
  return map.insert(std::move(node)).position->second;
}

}  // namespace

LockManager::ItemLock& LockManager::LockFor(ItemId item) {
  return EntryFor(locks_, spare_locks_, item);
}

std::vector<ItemId>& LockManager::HeldFor(TxnId txn) {
  return EntryFor(held_, spare_held_, txn);
}

void LockManager::KeepSpare(LockTable::node_type node) {
  spare_locks_.push_back(std::move(node));
}

void LockManager::KeepSpare(HeldIndex::node_type node) {
  node.mapped().clear();
  spare_held_.push_back(std::move(node));
}

void LockManager::Release(TxnId txn, ItemId item) {
  auto it = locks_.find(item);
  if (it == locks_.end()) return;
  ItemLock& lock = it->second;
  auto h = std::find_if(lock.holders.begin(), lock.holders.end(),
                        [txn](const auto& p) { return p.first == txn; });
  if (h == lock.holders.end()) return;
  lock.holders.erase(h);
  auto held_it = held_.find(txn);
  if (held_it != held_.end()) {
    auto& items = held_it->second;
    items.erase(std::remove(items.begin(), items.end(), item), items.end());
    if (items.empty()) KeepSpare(held_.extract(held_it));
  }
  PumpQueue(item, &lock);
  MaybeErase(item);
}

void LockManager::ReleaseAll(TxnId txn) {
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  // Out of the index first: a pumped waiter of `txn` starts a fresh entry.
  HeldIndex::node_type held = held_.extract(it);
  for (ItemId item : held.mapped()) {
    auto lit = locks_.find(item);
    if (lit == locks_.end()) continue;
    ItemLock& lock = lit->second;
    auto h = std::find_if(lock.holders.begin(), lock.holders.end(),
                          [txn](const auto& p) { return p.first == txn; });
    if (h != lock.holders.end()) lock.holders.erase(h);
    PumpQueue(item, &lock);
    MaybeErase(item);
  }
  KeepSpare(std::move(held));
}

void LockManager::CrashReset(const std::function<bool(TxnId)>& keep) {
  // Phase 1: detach every waiter and filter holders while the table is in a
  // consistent state. Shots fire through the event queue (non-reentrant),
  // but collecting first keeps the walk independent of resume order anyway.
  std::vector<Waiter*> cancelled;
  for (auto it = locks_.begin(); it != locks_.end();) {
    ItemLock& lock = it->second;
    while (!lock.queue.empty()) cancelled.push_back(lock.queue.PopFront());
    std::erase_if(lock.holders,
                  [&keep](const auto& p) { return !keep(p.first); });
    if (lock.holders.empty()) {
      KeepSpare(locks_.extract(it++));
    } else {
      ++it;
    }
  }
  // Phase 2: rebuild the per-transaction held index from what survived.
  while (!held_.empty()) KeepSpare(held_.extract(held_.begin()));
  for (const auto& [item, lock] : locks_) {
    for (const auto& [holder, mode] : lock.holders) {
      HeldFor(holder).push_back(item);
    }
  }
  // Phase 3: wake the cancelled waiters; their QueueAndWait frames clean up.
  for (Waiter* w : cancelled) w->shot.Fire(sim::WaitStatus::kCancelled);
}

bool LockManager::Holds(TxnId txn, ItemId item, LockMode mode) const {
  auto it = locks_.find(item);
  if (it == locks_.end()) return false;
  for (const auto& [holder, held_mode] : it->second.holders) {
    if (holder == txn) return held_mode == mode;
  }
  return false;
}

size_t LockManager::HolderCount(ItemId item) const {
  auto it = locks_.find(item);
  return it == locks_.end() ? 0 : it->second.holders.size();
}

size_t LockManager::WaiterCount(ItemId item) const {
  auto it = locks_.find(item);
  return it == locks_.end() ? 0 : it->second.queue.size;
}

std::vector<ItemId> LockManager::HeldItems(TxnId txn) const {
  auto it = held_.find(txn);
  if (it == held_.end()) return {};
  return it->second;
}

void LockManager::ResetStats() {
  grants_ = waits_ = timeouts_ = 0;
}

}  // namespace lazyrep::db
