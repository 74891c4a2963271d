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

bool LockManager::RemoveHolder(ItemLock* lock, TxnId txn) {
  auto h = std::find_if(lock->holders.begin(), lock->holders.end(),
                        [txn](const auto& p) { return p.first == txn; });
  if (h == lock->holders.end()) return false;
  lock->holders.erase(h);
  return true;
}

sim::Task<sim::WaitStatus> LockManager::Acquire(TxnId txn, ItemId item,
                                                LockMode mode,
                                                sim::SimTime timeout) {
  ItemLock& lock = LockFor(item)->second;
  for (const auto& [holder, held_mode] : lock.holders) {
    LAZYREP_CHECK_MSG(holder != txn,
                      "transaction requests a lock it already holds here");
  }
  // Immediate grant: compatible with every holder and no earlier waiter
  // pending (FIFO fairness).
  if (lock.queue.empty() && CompatibleWithHolders(lock, mode)) {
    lock.holders.emplace_back(txn, mode);
    held_.FindOrInsert(txn).push_back(item);
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
  LockFor(item)->second.queue.PushBack(&waiter);

  sim::SimTime wait_start = sim_->Now();
  sim::WaitStatus status = co_await waiter.shot.Wait(timeout);

  if (status != sim::WaitStatus::kSignaled) {
    if (status == sim::WaitStatus::kTimeout) ++timeouts_;
    // Remove ourselves from the queue; the lock entry may need pumping since
    // our departure can unblock requests behind us.
    auto it = LockFor(item);
    it->second.queue.Remove(&waiter);
    PumpQueue(item, &it->second);
    MaybeErase(it);
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
    held_.FindOrInsert(head->txn).push_back(item);
    head->shot.Fire(sim::WaitStatus::kSignaled);
  }
}

void LockManager::MaybeErase(LockTable::iterator it) {
  if (it->second.holders.empty() && it->second.queue.empty()) {
    spare_locks_.push_back(locks_.extract(it));
  }
}

LockManager::LockTable::iterator LockManager::LockFor(ItemId item) {
  auto it = locks_.find(item);
  if (it != locks_.end()) return it;
  if (spare_locks_.empty()) return locks_.try_emplace(item).first;
  LockTable::node_type node = std::move(spare_locks_.back());
  spare_locks_.pop_back();
  node.key() = item;
  return locks_.insert(std::move(node)).position;
}

void LockManager::Release(TxnId txn, ItemId item) {
  auto it = locks_.find(item);
  if (it == locks_.end() || !RemoveHolder(&it->second, txn)) return;
  if (const size_t pos = held_.Find(txn); pos != held_.kNotFound) {
    std::vector<ItemId>& items = held_.At(pos);
    std::erase(items, item);
    if (items.empty()) held_.Erase(pos);
  }
  PumpQueue(item, &it->second);
  MaybeErase(it);
}

void LockManager::ReleaseAll(TxnId txn) {
  const size_t pos = held_.Find(txn);
  if (pos == held_.kNotFound) return;
  // Out of the table first, but not back in the pool: a waiter a pump
  // grants may start a new entry, which must not be handed this list while
  // the loop reads it.
  const uint32_t list = held_.Detach(pos);
  for (ItemId item : held_.Detached(list)) {
    auto it = locks_.find(item);
    if (it == locks_.end()) continue;
    RemoveHolder(&it->second, txn);
    PumpQueue(item, &it->second);
    MaybeErase(it);
  }
  held_.Recycle(list);
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
      spare_locks_.push_back(locks_.extract(it++));
    } else {
      ++it;
    }
  }
  // Phase 2: rebuild the per-transaction held index from what survived.
  held_.Clear();
  for (const auto& [item, lock] : locks_) {
    for (const auto& [holder, mode] : lock.holders) {
      held_.FindOrInsert(holder).push_back(item);
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
  const size_t pos = held_.Find(txn);
  if (pos == held_.kNotFound) return {};
  return held_.At(pos);
}

void LockManager::ResetStats() {
  grants_ = waits_ = timeouts_ = 0;
}

}  // namespace lazyrep::db
