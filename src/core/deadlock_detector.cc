#include "core/deadlock_detector.h"

#include <deque>
#include <unordered_map>

namespace asset {

std::vector<Tid> DeadlockDetector::WouldDeadlock(
    const TransactionDescriptor* requester, const TdTable& txns) {
  // BFS from the requester along waits-for edges; reaching it again
  // closes a cycle through it. `waited_by` maps each reached tid to the
  // tid that waits for it, so the path back can be read off.
  const Tid self = requester->tid;
  std::unordered_map<Tid, Tid> waited_by;
  std::deque<Tid> work{self};
  while (!work.empty()) {
    Tid cur = work.front();
    work.pop_front();
    const TransactionDescriptor* td = requester;
    if (cur != self) {
      auto it = txns.find(cur);
      if (it == txns.end()) continue;
      td = it->second.get();
    }
    for (Tid next : td->waiting_for) {
      if (next == self) {
        std::vector<Tid> cycle;
        for (Tid t = cur; t != self; t = waited_by[t]) cycle.push_back(t);
        cycle.push_back(self);
        return {cycle.rbegin(), cycle.rend()};
      }
      if (waited_by.emplace(next, cur).second) work.push_back(next);
    }
  }
  return {};
}

}  // namespace asset
