// Workflow engine (§3.2.3 + appendix): ordered alternatives, parallel
// races, optional steps, compensation of the committed prefix.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "kernel_fixture.h"
#include "models/saga.h"
#include "models/workflow.h"

namespace asset {
namespace {

using namespace std::chrono_literals;

class WorkflowModelTest : public KernelFixture {};

TEST_F(WorkflowModelTest, AllRequiredStepsSucceed) {
  ObjectId flight = MakeObject("none");
  ObjectId hotel = MakeObject("none");
  models::Workflow wf;
  wf.AddRequired("flight", [&] {
    ASSERT_TRUE(tm_->Write(TransactionManager::Self(), flight,
                           TestBytes("booked"))
                    .ok());
  });
  wf.AddRequired("hotel", [&] {
    ASSERT_TRUE(tm_->Write(TransactionManager::Self(), hotel,
                           TestBytes("reserved"))
                    .ok());
  });
  auto out = wf.Run(*tm_);
  EXPECT_TRUE(out.succeeded);
  EXPECT_EQ(out.steps.size(), 2u);
  EXPECT_EQ(ReadCommitted(flight), "booked");
  EXPECT_EQ(ReadCommitted(hotel), "reserved");
}

TEST_F(WorkflowModelTest, OrderedAlternativesPreferEarlier) {
  ObjectId seat = MakeObject("none");
  models::Workflow::Step step;
  step.name = "flight";
  // Delta fails, United succeeds, American never tried.
  std::atomic<bool> american_tried{false};
  step.alternatives = {
      [&] { tm_->Abort(TransactionManager::Self()); },
      [&] {
        ASSERT_TRUE(tm_->Write(TransactionManager::Self(), seat,
                               TestBytes("united"))
                        .ok());
      },
      [&] { american_tried = true; },
  };
  models::Workflow wf;
  wf.AddStep(std::move(step));
  auto out = wf.Run(*tm_);
  EXPECT_TRUE(out.succeeded);
  EXPECT_EQ(out.steps[0].winner, 1);
  EXPECT_FALSE(american_tried.load());
  EXPECT_EQ(ReadCommitted(seat), "united");
}

TEST_F(WorkflowModelTest, RequiredFailureCompensatesCommittedPrefix) {
  ObjectId flight = MakeObject("none");
  models::Workflow wf;
  wf.AddRequired(
      "flight",
      [&] {
        ASSERT_TRUE(tm_->Write(TransactionManager::Self(), flight,
                               TestBytes("booked"))
                        .ok());
      },
      [&] {
        // cancel_flight_reservation
        ASSERT_TRUE(tm_->Write(TransactionManager::Self(), flight,
                               TestBytes("cancelled"))
                        .ok());
      });
  wf.AddRequired("hotel",
                 [&] { tm_->Abort(TransactionManager::Self()); });
  auto out = wf.Run(*tm_);
  EXPECT_FALSE(out.succeeded);
  EXPECT_EQ(out.failed_step, "hotel");
  EXPECT_EQ(out.compensations_run, 1u);
  EXPECT_EQ(ReadCommitted(flight), "cancelled");
}

// A compensation that always aborts must not spin forever: it is
// retried up to the saga bound, then the workflow reports failure.
TEST_F(WorkflowModelTest, CompensationThatNeverCommitsGivesUp) {
  std::atomic<int> attempts{0};
  models::Workflow wf;
  wf.AddRequired(
      "flight", [] {},
      [&] {
        attempts.fetch_add(1);
        tm_->Abort(TransactionManager::Self());
      });
  wf.AddRequired("hotel",
                 [&] { tm_->Abort(TransactionManager::Self()); });
  auto out = wf.Run(*tm_);
  EXPECT_FALSE(out.succeeded);
  EXPECT_EQ(out.failed_step, "hotel");
  EXPECT_EQ(out.compensations_run, 0u);  // never actually committed
  EXPECT_EQ(attempts.load(), models::kMaxCompensationAttempts);
}

TEST_F(WorkflowModelTest, OptionalFailureDoesNotAbortWorkflow) {
  ObjectId flight = MakeObject("none");
  models::Workflow wf;
  wf.AddRequired("flight", [&] {
    ASSERT_TRUE(tm_->Write(TransactionManager::Self(), flight,
                           TestBytes("booked"))
                    .ok());
  });
  wf.AddOptional("car", [&] { tm_->Abort(TransactionManager::Self()); });
  auto out = wf.Run(*tm_);
  EXPECT_TRUE(out.succeeded);  // "X can take public transportation"
  EXPECT_EQ(out.steps[1].winner, -1);
  EXPECT_EQ(out.compensations_run, 0u);
  EXPECT_EQ(ReadCommitted(flight), "booked");
}

TEST_F(WorkflowModelTest, RaceFirstCompletionWins) {
  ObjectId car = MakeObject("none");
  models::Workflow::Step step;
  step.name = "car";
  step.mode = models::Workflow::Mode::kRace;
  step.required = false;
  step.alternatives = {
      [&] {
        std::this_thread::sleep_for(150ms);  // National is slow
        tm_->Write(TransactionManager::Self(), car, TestBytes("national"))
            .ok();
      },
      [&] {
        tm_->Write(TransactionManager::Self(), car, TestBytes("avis")).ok();
      },
  };
  models::Workflow wf;
  wf.AddStep(std::move(step));
  auto out = wf.Run(*tm_);
  EXPECT_TRUE(out.succeeded);
  EXPECT_EQ(out.steps[0].winner, 1);  // Avis finished first
  EXPECT_EQ(ReadCommitted(car), "avis");
}

TEST_F(WorkflowModelTest, RaceAllAbortedFails) {
  models::Workflow::Step step;
  step.name = "car";
  step.mode = models::Workflow::Mode::kRace;
  step.required = false;
  step.alternatives = {
      [&] { tm_->Abort(TransactionManager::Self()); },
      [&] { tm_->Abort(TransactionManager::Self()); },
  };
  models::Workflow wf;
  wf.AddStep(std::move(step));
  auto out = wf.Run(*tm_);
  EXPECT_TRUE(out.succeeded);  // optional step
  EXPECT_EQ(out.steps[0].winner, -1);
}

TEST_F(WorkflowModelTest, MultiStepFailureCompensatesInReverse) {
  std::vector<std::string> trace;
  std::mutex mu;
  auto mark = [&](const std::string& s) {
    std::lock_guard<std::mutex> g(mu);
    trace.push_back(s);
  };
  models::Workflow wf;
  wf.AddRequired("s1", [&] { mark("s1"); }, [&] { mark("c1"); });
  wf.AddRequired("s2", [&] { mark("s2"); }, [&] { mark("c2"); });
  wf.AddRequired("s3",
                 [&] { tm_->Abort(TransactionManager::Self()); });
  auto out = wf.Run(*tm_);
  EXPECT_FALSE(out.succeeded);
  EXPECT_EQ(trace, (std::vector<std::string>{"s1", "s2", "c2", "c1"}));
}

TEST_F(WorkflowModelTest, OptionalStepsAreNotCompensated) {
  std::atomic<bool> optional_compensated{false};
  models::Workflow wf;
  wf.AddRequired("s1", [] {});
  models::Workflow::Step opt;
  opt.name = "opt";
  opt.required = false;
  opt.alternatives = {[] {}};
  opt.compensation = [&] { optional_compensated = true; };
  wf.AddStep(std::move(opt));
  wf.AddRequired("s3", [&] { tm_->Abort(TransactionManager::Self()); });
  auto out = wf.Run(*tm_);
  EXPECT_FALSE(out.succeeded);
  EXPECT_FALSE(optional_compensated.load());
}

TEST_F(WorkflowModelTest, EmptyWorkflowSucceeds) {
  models::Workflow wf;
  auto out = wf.Run(*tm_);
  EXPECT_TRUE(out.succeeded);
  EXPECT_TRUE(out.steps.empty());
}

}  // namespace
}  // namespace asset
