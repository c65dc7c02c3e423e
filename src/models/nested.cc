#include "models/nested.h"

#include "core/database_internal.h"

#include "models/atomic.h"

namespace asset::models {

Status RunSubtransaction(TransactionManager& tm, std::function<void()> body,
                         OnChildAbort on_abort) {
  Tid self = TransactionManager::Self();
  if (self == kNullTid) {
    return Status::IllegalState(
        "RunSubtransaction must be called from inside a transaction");
  }
  Tid child = tm.InitiateFn(std::move(body));
  if (child == kNullTid) {
    return Status::ResourceExhausted("could not initiate subtransaction");
  }
  // permit(self(), t1): the child may see and touch everything the
  // parent holds, without a serialization conflict.
  ASSET_RETURN_NOT_OK(tm.Permit(self, child));
  // begin(t1) with the child run here: the parent only waits for it,
  // so wait(t1) below returns at once.
  if (!tm.RunBody(child).ok()) {
    return Status::IllegalState("could not begin subtransaction");
  }
  if (!tm.Wait(child)) {
    // Child aborted.
    if (on_abort == OnChildAbort::kAbortParent) {
      tm.Abort(self);
    }
    return Status::TxnAborted("subtransaction aborted");
  }
  // delegate(t1, self()): the child's operations become the parent's;
  // they persist only if the top-level transaction commits.
  ASSET_RETURN_NOT_OK(tm.Delegate(child, self));
  // commit(t1): after full delegation this is a formality (the paper
  // notes it no longer matters), but the translation performs it.
  tm.Commit(child);
  return Status::OK();
}

bool RunNestedRoot(TransactionManager& tm, std::function<void()> body) {
  return RunAtomic(tm, std::move(body));
}


Status RunSubtransaction(Database& db, std::function<void()> body,
                         OnChildAbort on_abort) {
  return RunSubtransaction(KernelOf(db), std::move(body), on_abort);
}

bool RunNestedRoot(Database& db, std::function<void()> body) {
  return RunNestedRoot(KernelOf(db), std::move(body));
}

}  // namespace asset::models
