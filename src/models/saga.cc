#include "models/saga.h"

#include "core/database_internal.h"
#include "models/atomic.h"

namespace asset::models {

bool CompensateUntilCommitted(TransactionManager& tm,
                              const std::function<void()>& compensation,
                              int max_attempts) {
  for (int attempts = 0; max_attempts <= 0 || attempts < max_attempts;
       ++attempts) {
    if (RunAtomic(tm, compensation)) return true;
  }
  return false;
}

Saga& Saga::AddStep(std::function<void()> action,
                    std::function<void()> compensation) {
  steps_.push_back(Step{std::move(action), std::move(compensation)});
  return *this;
}

Saga& Saga::AddStep(std::function<void()> action) {
  steps_.push_back(Step{std::move(action), nullptr});
  return *this;
}

Saga::Outcome Saga::Run(TransactionManager& tm,
                        int max_compensation_attempts) {
  Outcome outcome;
  // Forward phase: ti = initiate(fi); begin(ti); if (!commit(ti)) break;
  for (const Step& step : steps_) {
    if (!RunAtomic(tm, step.action)) break;
    outcome.steps_committed++;
  }
  if (outcome.steps_committed == steps_.size()) {
    outcome.committed = true;
    return outcome;
  }
  // Compensation phase: the switch cascade — ct_k .. ct_1, each retried
  // until it commits.
  for (size_t k = outcome.steps_committed; k-- > 0;) {
    if (!steps_[k].compensation) continue;
    if (!CompensateUntilCommitted(tm, steps_[k].compensation,
                                  max_compensation_attempts)) {
      break;  // gave up; the outcome still reports how far we got
    }
    outcome.compensations_run++;
  }
  return outcome;
}


Saga::Outcome Saga::Run(Database& db, int max_compensation_attempts) {
  return Run(KernelOf(db), max_compensation_attempts);
}

}  // namespace asset::models
