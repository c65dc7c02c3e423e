#include "models/atomic.h"

#include "core/database_internal.h"

#include <thread>

namespace asset::models {

bool RunAtomic(TransactionManager& tm, std::function<void()> body) {
  Tid t = tm.InitiateFn(std::move(body));
  if (t == kNullTid) return false;
  // begin(t) with the body run here: the caller only waits for it.
  if (!tm.RunBody(t).ok()) return false;
  return tm.Commit(t);
}

bool RunAtomicWithRetry(TransactionManager& tm, std::function<void()> body,
                        int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (RunAtomic(tm, body)) return true;
    // Brief, growing pause so colliding retriers de-synchronize.
    std::this_thread::sleep_for(std::chrono::microseconds(50 << attempt));
  }
  return false;
}


bool RunAtomic(Database& db, std::function<void()> body) {
  return RunAtomic(KernelOf(db), std::move(body));
}

bool RunAtomicWithRetry(Database& db, std::function<void()> body,
                        int max_attempts) {
  return RunAtomicWithRetry(KernelOf(db), std::move(body), max_attempts);
}

}  // namespace asset::models
