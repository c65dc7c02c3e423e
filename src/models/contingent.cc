#include "models/contingent.h"

#include "models/atomic.h"

namespace asset::models {

ContingentTransaction& ContingentTransaction::AddAlternative(
    std::function<void()> body) {
  alternatives_.push_back(std::move(body));
  return *this;
}

int RunFirstToCommit(TransactionManager& tm,
                     const std::vector<std::function<void()>>& alternatives) {
  // t1 = initiate(f1); begin(t1); if (commit(t1)); else { t2 = ... }
  for (size_t i = 0; i < alternatives.size(); ++i) {
    if (RunAtomic(tm, alternatives[i])) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace asset::models
