#include "core/lock_manager.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "core/op_deadline.h"

namespace asset {

namespace {

Operation OperationFor(LockMode mode) {
  // Increments mutate the object, so for permit purposes they are
  // writes.
  return mode == LockMode::kRead ? Operation::kRead : Operation::kWrite;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

LockManager::LockManager(KernelSync* sync, PermitTable* permits,
                         const TdTable* txns, KernelStats* stats,
                         FlightRecorder* recorder, Options options)
    : sync_(sync),
      permits_(permits),
      txns_(txns),
      stats_(stats),
      recorder_(recorder),
      options_(options) {
  size_t n = RoundUpPow2(std::max<size_t>(1, options_.shards));
  shards_.resize(n);
  shard_mask_ = n - 1;
}

LockManager::Shard& LockManager::ShardFor(ObjectId oid) {
  // Fibonacci mix: sequential oids (the common allocation pattern)
  // spread evenly across partitions.
  uint64_t h = oid * 0x9E3779B97F4A7C15ull;
  return shards_[(h >> 32) & shard_mask_];
}

const LockManager::Shard& LockManager::ShardFor(ObjectId oid) const {
  uint64_t h = oid * 0x9E3779B97F4A7C15ull;
  return shards_[(h >> 32) & shard_mask_];
}

ObjectDescriptor* LockManager::GetOrCreate(Shard& shard, ObjectId oid) {
  auto it = shard.table.find(oid);
  if (it != shard.table.end()) return it->second.get();
  auto od = std::make_unique<ObjectDescriptor>(oid);
  ObjectDescriptor* raw = od.get();
  shard.table.emplace(oid, std::move(od));
  return raw;
}

ObjectDescriptor* LockManager::Find(ObjectId oid) {
  Shard& shard = ShardFor(oid);
  std::lock_guard<std::mutex> sl(shard.mu);
  auto it = shard.table.find(oid);
  return it == shard.table.end() ? nullptr : it->second.get();
}

void LockManager::NotifyWaiters(ObjectDescriptor* od) {
  if (od->waiter_tds.empty()) return;
  for (TransactionDescriptor* waiter : od->waiter_tds) {
    waiter->lock_wait.Notify();
  }
  stats_->lock_wakeups.fetch_add(od->waiter_tds.size(),
                                 std::memory_order_relaxed);
}

void LockManager::Deregister(ObjectDescriptor* od, TransactionDescriptor* td) {
  auto& w = od->waiter_tds;
  w.erase(std::remove(w.begin(), w.end(), td), w.end());
}

Status LockManager::Acquire(TransactionDescriptor* td, ObjectId oid,
                            LockMode mode) {
  if (mode == LockMode::kNone) return Status::OK();
  bool bounded = options_.lock_timeout.count() > 0;
  auto deadline = std::chrono::steady_clock::now() + options_.lock_timeout;
  // A request admitted with a deadline budget (the thread-local set by
  // its dispatcher) must not sleep past it, whatever lock_timeout says.
  if (auto op_deadline = CurrentOpDeadline()) {
    if (!bounded || *op_deadline < deadline) deadline = *op_deadline;
    bounded = true;
  }
  Shard& shard = ShardFor(oid);
  bool waited = false;
  bool registered = false;  // on the OD's waiter list (shard-latched)
  bool published = false;   // waits-for edges + sync_->lock_blocked entry
  int64_t wait_start_ns = 0;      // taken when the acquire first blocks
  Tid first_blocker = kNullTid;   // a holder we first blocked on

  // Every exit of a blocking acquire lands here: lock-wait histogram +
  // one kLockWait trace event. The uncontended path never takes a
  // timestamp and never gets here with `waited` set.
  auto record_wait = [&](LockWaitOutcome outcome) {
    if (!waited) return;
    int64_t dur = FlightRecorder::NowNs() - wait_start_ns;
    if (dur < 0) dur = 0;
    stats_->lock_wait_latency.Record(static_cast<uint64_t>(dur));
    if (recorder_ != nullptr) {
      recorder_->Emit(TraceEventType::kLockWait, td->tid, first_blocker, oid,
                      static_cast<uint64_t>(outcome), dur);
    }
  };

  // Removes our waiter registration (if any) and reclaims an OD we may
  // have left empty. Called on every exit path.
  auto deregister = [&] {
    if (!registered) return;
    std::lock_guard<std::mutex> sl(shard.mu);
    auto it = shard.table.find(oid);
    if (it != shard.table.end()) {
      Deregister(it->second.get(), td);
      MaybeReclaim(shard, oid);
    }
    registered = false;
  };
  // A blocked iteration published waits-for edges and registered in the
  // blocked set; clear both on exit.
  auto unpublish = [&] {
    if (!published) return;
    std::lock_guard<std::mutex> gl(sync_->mu);
    td->waiting_for.clear();
    td->waiting_for_oid = kNullObjectId;
    sync_->lock_blocked.erase(td);
    published = false;
  };

  for (;;) {  // the paper's "retries later starting at step 1"
    TxnStatus ts = td->status.load(std::memory_order_acquire);
    if (ts == TxnStatus::kAborting || ts == TxnStatus::kAborted) {
      deregister();
      unpublish();
      record_wait(LockWaitOutcome::kAborted);
      return Status::TxnAborted("transaction " + std::to_string(td->tid) +
                                " is aborting");
    }

    // Snapshot our channel's generation BEFORE inspecting the lock
    // state. Lock releases are guarded by the shard latch, but permits
    // and delegations are not: they mutate state under the global mutex
    // only. Snapshotting first makes the order snapshot -> check ->
    // sleep, so any notification issued after the snapshot (and thus
    // possibly for a change our check missed) bumps the sequence and the
    // sleep returns immediately. Only an iteration that can sleep needs
    // the snapshot: the first blocked iteration re-checks instead of
    // sleeping (below), so `published` is always true by the time a
    // sleep can happen — and uncontended acquires skip the channel
    // entirely.
    const uint64_t seq = published ? td->lock_wait.sequence() : 0;

    std::vector<Tid> blockers;
    bool granted = false;
    bool frozen = false;
    {
      std::lock_guard<std::mutex> sl(shard.mu);
      ObjectDescriptor* od = GetOrCreate(shard, oid);

      LockRequestDescriptor* own = nullptr;
      for (auto& lrd : od->granted) {
        if (lrd->td == td) {
          own = lrd.get();
          break;
        }
      }
      // Step 1a: our own unsuspended lock covering the request.
      if (own != nullptr && !own->suspended &&
          LockModeCovers(own->mode, mode)) {
        if (registered) {
          Deregister(od, td);
          registered = false;
        }
        granted = true;
      } else {
        // The mode the grant will carry: re-asserting a suspended lock
        // keeps its strength, an upgrade raises it.
        const LockMode needed =
            own != nullptr ? JoinLockModes(own->mode, mode) : mode;

        // Step 1b: scan other holders; permitted conflicts get
        // suspended, unpermitted ones block us. A lock that is already
        // suspended still blocks requesters its holder has NOT
        // permitted — suspension only cancels the "covers" property for
        // the holder itself, it does not surrender the object to the
        // world.
        std::vector<LockRequestDescriptor*> to_suspend;
        for (auto& lrd : od->granted) {
          if (lrd->td == td) continue;
          if (!LockModesConflict(lrd->mode, needed)) continue;
          stats_->permit_checks.fetch_add(1, std::memory_order_relaxed);
          if (permits_->Permits(lrd->td->tid, td->tid, oid,
                                OperationFor(needed))) {
            stats_->permit_hits.fetch_add(1, std::memory_order_relaxed);
            if (!lrd->suspended) to_suspend.push_back(lrd.get());
          } else {
            blockers.push_back(lrd->td->tid);
          }
        }

        if (blockers.empty()) {
          // Step 2: grant.
          for (LockRequestDescriptor* lrd : to_suspend) {
            lrd->suspended = true;
            stats_->lock_suspensions.fetch_add(1, std::memory_order_relaxed);
          }
          if (own != nullptr) {
            own->mode = needed;
            own->suspended = false;
          } else {
            auto lrd = std::make_unique<LockRequestDescriptor>();
            lrd->td = td;
            lrd->od = od;
            lrd->mode = needed;
            lrd->suspended = false;
            {
              std::lock_guard<std::mutex> ll(td->lrds_mu);
              if (td->locks_frozen) {
                // Terminated out from under us: the lock list is dead.
                frozen = true;
              } else {
                td->lrds.push_back(lrd.get());
              }
            }
            if (!frozen) od->granted.push_back(std::move(lrd));
          }
          if (!frozen) {
            if (registered) {
              Deregister(od, td);
              registered = false;
            }
            granted = true;
          } else {
            if (registered) {
              Deregister(od, td);
              registered = false;
            }
            MaybeReclaim(shard, oid);
          }
        } else {
          // Register interest while still holding the shard latch, so a
          // release between here and the sleep notifies us.
          if (!registered) {
            od->waiter_tds.push_back(td);
            registered = true;
          }
        }
      }
    }

    if (granted) {
      unpublish();
      stats_->locks_granted.fetch_add(1, std::memory_order_relaxed);
      record_wait(LockWaitOutcome::kGranted);
      return Status::OK();
    }
    if (frozen) {
      unpublish();
      record_wait(LockWaitOutcome::kAborted);
      return Status::TxnAborted("transaction " + std::to_string(td->tid) +
                                " terminated during lock acquisition");
    }

    // Block. Publish the waits-for edges and register in the blocked set
    // (under the global mutex, shard latch released) so the deadlock
    // check, other requesters, and permit/delegation wakeups can see us.
    const bool first_publish = !published;
    {
      std::lock_guard<std::mutex> gl(sync_->mu);
      td->waiting_for = blockers;
      td->waiting_for_oid = oid;
      sync_->lock_blocked.insert(td);
      published = true;
      std::vector<Tid> cycle;
      if (options_.detect_deadlocks) {
        cycle = DeadlockDetector::WouldDeadlock(td, *txns_);
      }
      if (!cycle.empty()) {
        // Name the cycle for introspection before resolving it — the
        // victim's edges below are what close it.
        sync_->last_deadlock_cycle = std::move(cycle);
        td->waiting_for.clear();
        td->waiting_for_oid = kNullObjectId;
        sync_->lock_blocked.erase(td);
        published = false;
        stats_->deadlocks.fetch_add(1, std::memory_order_relaxed);
        // fallthrough to deregister outside the global mutex
        blockers.clear();
      }
    }
    if (blockers.empty()) {  // deadlock detected above
      deregister();
      record_wait(LockWaitOutcome::kDeadlock);
      return Status::Deadlock("lock on object " + std::to_string(oid) +
                              " would deadlock transaction " +
                              std::to_string(td->tid));
    }
    if (!waited) {
      stats_->lock_waits.fetch_add(1, std::memory_order_relaxed);
      waited = true;
      wait_start_ns = FlightRecorder::NowNs();
      first_blocker = blockers.front();
    }
    if (first_publish) {
      // A permit inserted (and its wakeup issued) between our lock-state
      // check and the registration above would not have notified us:
      // the wakeup scans only the blocked set. Re-run the check once
      // before the first sleep; from now on we are registered before
      // every snapshot, so nothing can slip through.
      continue;
    }
    if (!td->lock_wait.WaitChanged(seq, deadline, bounded)) {
      deregister();
      unpublish();
      stats_->lock_timeouts.fetch_add(1, std::memory_order_relaxed);
      record_wait(LockWaitOutcome::kTimeout);
      return Status::TimedOut("lock on object " + std::to_string(oid) +
                              " timed out for transaction " +
                              std::to_string(td->tid));
    }
    stats_->lock_wait_retries.fetch_add(1, std::memory_order_relaxed);
  }
}

void LockManager::ReleaseAll(TransactionDescriptor* td) {
  // Freeze and take the lock list in one step; a racing grant that
  // misses the snapshot sees locks_frozen and gives up.
  std::vector<LockRequestDescriptor*> mine;
  {
    std::lock_guard<std::mutex> ll(td->lrds_mu);
    td->locks_frozen = true;
    mine.swap(td->lrds);
  }
  if (mine.empty()) return;

  // Group by shard so each partition is latched once.
  std::unordered_map<Shard*, std::vector<LockRequestDescriptor*>> by_shard;
  for (LockRequestDescriptor* lrd : mine) {
    by_shard[&ShardFor(lrd->od->oid)].push_back(lrd);
  }
  for (auto& [shard, lrds] : by_shard) {
    std::lock_guard<std::mutex> sl(shard->mu);
    std::unordered_set<ObjectDescriptor*> touched;
    for (LockRequestDescriptor* lrd : lrds) {
      ObjectDescriptor* od = lrd->od;
      touched.insert(od);
      auto& granted = od->granted;
      granted.erase(std::remove_if(granted.begin(), granted.end(),
                                   [&](const auto& p) {
                                     return p.get() == lrd;
                                   }),
                    granted.end());
    }
    // Wake the registered waiters while still holding the shard latch:
    // registration (and thus the waiter TDs) cannot change under us.
    for (ObjectDescriptor* od : touched) {
      NotifyWaiters(od);
      MaybeReclaim(*shard, od->oid);
    }
  }
}

size_t LockManager::Delegate(TransactionDescriptor* ti,
                             TransactionDescriptor* tj,
                             const ObjectSet& objs) {
  // Snapshot under the leaf mutex; the global kernel mutex (held by our
  // caller) serializes delegation against release, so entries cannot be
  // freed behind the snapshot.
  std::vector<LockRequestDescriptor*> snapshot;
  {
    std::lock_guard<std::mutex> ll(ti->lrds_mu);
    snapshot = ti->lrds;
  }
  size_t moved = 0;
  for (LockRequestDescriptor* lrd : snapshot) {
    ObjectId oid = lrd->od->oid;
    if (!objs.Contains(oid)) continue;
    Shard& shard = ShardFor(oid);
    std::lock_guard<std::mutex> sl(shard.mu);
    ObjectDescriptor* od = lrd->od;

    // Does tj already hold a lock on this object? Merge.
    LockRequestDescriptor* existing = nullptr;
    for (auto& g : od->granted) {
      if (g->td == tj) {
        existing = g.get();
        break;
      }
    }
    // Detach from ti before the merge possibly frees the LRD, so no
    // reader of ti->lrds can ever see a dangling entry.
    {
      std::lock_guard<std::mutex> ll(ti->lrds_mu);
      auto& v = ti->lrds;
      v.erase(std::remove(v.begin(), v.end(), lrd), v.end());
    }
    if (existing != nullptr) {
      existing->mode = JoinLockModes(existing->mode, lrd->mode);
      existing->suspended = existing->suspended && lrd->suspended;
      auto& granted = od->granted;
      granted.erase(std::remove_if(granted.begin(), granted.end(),
                                   [&](const auto& p) {
                                     return p.get() == lrd;
                                   }),
                    granted.end());
    } else {
      lrd->td = tj;
      std::lock_guard<std::mutex> ll(tj->lrds_mu);
      tj->lrds.push_back(lrd);
    }
    // The delegatee may permit (or be) a blocked requester; let the
    // object's waiters re-evaluate.
    NotifyWaiters(od);
    ++moved;
  }
  if (moved > 0) {
    stats_->locks_delegated.fetch_add(moved, std::memory_order_relaxed);
  }
  return moved;
}

ObjectSet LockManager::LockedObjects(TransactionDescriptor* td) const {
  std::lock_guard<std::mutex> ll(td->lrds_mu);
  std::vector<ObjectId> ids;
  ids.reserve(td->lrds.size());
  for (const LockRequestDescriptor* lrd : td->lrds) {
    ids.push_back(lrd->od->oid);
  }
  return ObjectSet(std::move(ids));
}

LockMode LockManager::HeldMode(TransactionDescriptor* td, ObjectId oid) const {
  std::lock_guard<std::mutex> ll(td->lrds_mu);
  for (const LockRequestDescriptor* lrd : td->lrds) {
    if (lrd->od->oid == oid) return lrd->mode;
  }
  return LockMode::kNone;
}

bool LockManager::IsSuspended(TransactionDescriptor* td, ObjectId oid) const {
  std::lock_guard<std::mutex> ll(td->lrds_mu);
  for (const LockRequestDescriptor* lrd : td->lrds) {
    if (lrd->od->oid == oid) return lrd->suspended;
  }
  return false;
}

size_t LockManager::NumObjects() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> sl(shard.mu);
    n += shard.table.size();
  }
  return n;
}

void LockManager::MaybeReclaim(Shard& shard, ObjectId oid) {
  auto it = shard.table.find(oid);
  if (it == shard.table.end()) return;
  if (it->second->granted.empty() && it->second->waiter_tds.empty()) {
    shard.table.erase(it);
  }
}

}  // namespace asset
