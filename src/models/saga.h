#ifndef ASSET_MODELS_SAGA_H_
#define ASSET_MODELS_SAGA_H_

/// \file saga.h
/// Sagas — the §3.1.6 translation.
///
/// A saga is a sequence of component transactions t_1..t_n, each (except
/// the last) paired with a compensating transaction ct_i. Components
/// commit as they go — isolation holds only per component. If component
/// k+1 fails, the committed prefix is semantically undone by running
/// ct_k .. ct_1 in reverse order; each compensating transaction is
/// retried until it finally commits (the paper's do/while loops).
///
/// The correct executions are therefore
///     t_1 t_2 ... t_n                         (committed saga)
///     t_1 ... t_k ct_k ct_{k-1} ... ct_1      (aborted saga)

#include <functional>
#include <string>
#include <vector>

#include "core/transaction_manager.h"

namespace asset {
class Database;
}

namespace asset::models {

/// Default bound on the paper's unbounded compensation retry loop, so a
/// compensation that can never commit (it always aborts, or the
/// transaction table stays full) cannot hang the caller.
inline constexpr int kMaxCompensationAttempts = 100;

/// Runs `compensation` as a transaction until it commits, at most
/// `max_attempts` times (0 = retry forever). True iff it committed.
/// Sagas and workflows both compensate through this loop.
bool CompensateUntilCommitted(TransactionManager& tm,
                              const std::function<void()>& compensation,
                              int max_attempts = kMaxCompensationAttempts);

/// Builder and runner for one saga.
class Saga {
 public:
  /// Adds a component with its compensating transaction.
  Saga& AddStep(std::function<void()> action,
                std::function<void()> compensation);

  /// Adds a component with no compensation (the paper's t_n: committing
  /// the last component commits the saga). Legal for any step, but a
  /// failure after an uncompensated step cannot semantically undo it.
  Saga& AddStep(std::function<void()> action);

  struct Outcome {
    /// True iff every component committed.
    bool committed = false;
    /// Components that committed (== steps.size() when committed).
    size_t steps_committed = 0;
    /// Compensating transactions run (each retried until it committed).
    size_t compensations_run = 0;
  };

  /// Executes the saga. Each compensation runs through
  /// CompensateUntilCommitted with `max_compensation_attempts`; one that
  /// gives up ends the compensation phase.
  Outcome Run(TransactionManager& tm,
              int max_compensation_attempts = kMaxCompensationAttempts);
  Outcome Run(Database& db,
              int max_compensation_attempts = kMaxCompensationAttempts);

  size_t size() const { return steps_.size(); }

 private:
  struct Step {
    std::function<void()> action;
    std::function<void()> compensation;  // may be empty
  };
  std::vector<Step> steps_;
};

}  // namespace asset::models

#endif  // ASSET_MODELS_SAGA_H_
