#ifndef ASSET_MODELS_WORKFLOW_H_
#define ASSET_MODELS_WORKFLOW_H_

/// \file workflow.h
/// Workflows — §3.2.3 and the appendix program.
///
/// A workflow is a sequence of steps, each a small contingent
/// transaction: ordered alternatives tried until one commits (Delta,
/// then United, then American), or raced in parallel with the first
/// completion winning (National vs Avis). Steps may carry a
/// compensation; when a *required* step fails, the committed required
/// prefix is compensated in reverse order, each compensation retried
/// until it commits (cancel_flight_reservation) — up to the saga bound,
/// kMaxCompensationAttempts, after which compensation stops. Optional
/// steps may fail without dooming the workflow (the rental car: "X can
/// take public transportation").
///
/// This class is the reusable engine; examples/travel_workflow.cc
/// instantiates the paper's X_conference program with it, and the paper
/// notes such code is what a workflow-language compiler would emit.

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "core/transaction_manager.h"

namespace asset {
class Database;
}

namespace asset::models {

/// Builder and runner for one workflow activity.
class Workflow {
 public:
  using Task = std::function<void()>;

  /// How a step's alternatives are attempted.
  enum class Mode {
    /// Try alternatives in preference order; first commit wins (§3.1.3
    /// contingent semantics — the flight reservations).
    kOrdered,
    /// Begin all alternatives concurrently; the first to complete its
    /// code wins, the others are aborted (the car-rental race).
    kRace,
  };

  struct Step {
    std::string name;
    std::vector<Task> alternatives;
    /// Run to semantically undo this step if a later required step
    /// fails. May be null (then the step cannot be undone).
    Task compensation;
    /// Required steps abort the workflow on failure (flight, hotel);
    /// optional ones do not (car).
    bool required = true;
    Mode mode = Mode::kOrdered;
  };

  Workflow& AddStep(Step step);

  /// Shorthands.
  Workflow& AddRequired(std::string name, Task task,
                        Task compensation = nullptr);
  Workflow& AddOptional(std::string name, Task task);

  struct StepOutcome {
    std::string name;
    /// Index of the committed alternative, -1 if the step failed.
    int winner = -1;
    bool committed = false;
  };

  struct Outcome {
    /// True iff every required step committed.
    bool succeeded = false;
    std::vector<StepOutcome> steps;
    /// Compensations that committed. Fewer than the committed required
    /// steps with a compensation when one gave up.
    size_t compensations_run = 0;
    /// Name of the required step that failed, empty on success.
    std::string failed_step;
  };

  Outcome Run(TransactionManager& tm);
  Outcome Run(Database& db);

  size_t size() const { return steps_.size(); }

 private:
  /// Runs one step; returns the winning alternative index or -1.
  int RunStep(TransactionManager& tm, const Step& step);
  int RunRace(TransactionManager& tm, const Step& step);

  std::vector<Step> steps_;
};

}  // namespace asset::models

#endif  // ASSET_MODELS_WORKFLOW_H_
