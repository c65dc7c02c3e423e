#include "models/workflow.h"

#include "core/database_internal.h"
#include "models/contingent.h"
#include "models/saga.h"

#include <thread>

namespace asset::models {

Workflow& Workflow::AddStep(Step step) {
  steps_.push_back(std::move(step));
  return *this;
}

Workflow& Workflow::AddRequired(std::string name, Task task,
                                Task compensation) {
  Step s;
  s.name = std::move(name);
  s.alternatives.push_back(std::move(task));
  s.compensation = std::move(compensation);
  s.required = true;
  return AddStep(std::move(s));
}

Workflow& Workflow::AddOptional(std::string name, Task task) {
  Step s;
  s.name = std::move(name);
  s.alternatives.push_back(std::move(task));
  s.required = false;
  return AddStep(std::move(s));
}

int Workflow::RunRace(TransactionManager& tm, const Step& step) {
  // The appendix car-rental race: begin all alternatives, first to
  // complete its code wins; the rest are aborted.
  std::vector<Tid> tids;
  for (const Task& task : step.alternatives) {
    Tid t = tm.InitiateFn(task);
    if (t != kNullTid) tids.push_back(t);
  }
  for (Tid t : tids) tm.Begin(t);

  int winner = -1;
  std::vector<bool> out(tids.size(), false);
  size_t remaining = tids.size();
  while (remaining > 0 && winner < 0) {
    for (size_t i = 0; i < tids.size(); ++i) {
      if (out[i]) continue;
      TxnStatus s = tm.GetStatus(tids[i]);
      if (s == TxnStatus::kCompleted || s == TxnStatus::kCommitting ||
          s == TxnStatus::kCommitted) {
        winner = static_cast<int>(i);
        break;
      }
      if (s == TxnStatus::kAborted || s == TxnStatus::kAborting) {
        out[i] = true;
        --remaining;
      }
    }
    if (winner < 0 && remaining > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  if (winner < 0) return -1;  // every alternative aborted
  for (size_t i = 0; i < tids.size(); ++i) {
    if (static_cast<int>(i) != winner) tm.Abort(tids[i]);
  }
  if (!tm.Commit(tids[winner])) return -1;
  return winner;
}

int Workflow::RunStep(TransactionManager& tm, const Step& step) {
  // kOrdered is the appendix flight cascade: a contingent transaction.
  return step.mode == Mode::kOrdered ? RunFirstToCommit(tm, step.alternatives)
                                     : RunRace(tm, step);
}

Workflow::Outcome Workflow::Run(TransactionManager& tm) {
  Outcome outcome;
  std::vector<size_t> committed_required;  // indexes into steps_
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    StepOutcome so;
    so.name = step.name;
    so.winner = RunStep(tm, step);
    so.committed = so.winner >= 0;
    outcome.steps.push_back(so);
    if (so.committed) {
      if (step.required) committed_required.push_back(i);
      continue;
    }
    if (!step.required) continue;  // the car: the trip proceeds anyway
    // A required step failed: compensate the committed required prefix
    // in reverse order, each compensation retried until it commits or
    // gives up (which ends the compensation phase, as in a saga).
    outcome.failed_step = step.name;
    for (size_t k = committed_required.size(); k-- > 0;) {
      const Step& done = steps_[committed_required[k]];
      if (!done.compensation) continue;
      if (!CompensateUntilCommitted(tm, done.compensation)) break;
      outcome.compensations_run++;
    }
    outcome.succeeded = false;
    return outcome;
  }
  outcome.succeeded = true;
  return outcome;
}


Workflow::Outcome Workflow::Run(Database& db) { return Run(KernelOf(db)); }

}  // namespace asset::models
