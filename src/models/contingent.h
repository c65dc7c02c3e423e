#ifndef ASSET_MODELS_CONTINGENT_H_
#define ASSET_MODELS_CONTINGENT_H_

/// \file contingent.h
/// Contingent transactions — the §3.1.3 translation.
///
/// `trans {f1()} else trans {f2()} else ... else trans {fn()}`: the
/// alternatives are tried in the given order; at most one commits.

#include <functional>
#include <vector>

#include "core/transaction_manager.h"

namespace asset::models {

/// Runs `alternatives` in order until one commits — the §3.1.3 loop,
/// shared by ContingentTransaction and ordered workflow steps. Returns
/// the 0-based index of the committed alternative, or -1 if every
/// alternative aborted.
int RunFirstToCommit(TransactionManager& tm,
                     const std::vector<std::function<void()>>& alternatives);

/// Builder for one contingent transaction.
class ContingentTransaction {
 public:
  /// Adds the next alternative.
  ContingentTransaction& AddAlternative(std::function<void()> body);

  /// RunFirstToCommit over the alternatives added so far.
  int Run(TransactionManager& tm) {
    return RunFirstToCommit(tm, alternatives_);
  }

 private:
  std::vector<std::function<void()>> alternatives_;
};

}  // namespace asset::models

#endif  // ASSET_MODELS_CONTINGENT_H_
