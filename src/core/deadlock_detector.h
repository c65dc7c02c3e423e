#ifndef ASSET_CORE_DEADLOCK_DETECTOR_H_
#define ASSET_CORE_DEADLOCK_DETECTOR_H_

/// \file deadlock_detector.h
/// Waits-for-graph deadlock detection.
///
/// The paper's blocked requesters simply "block and retry"; with strict
/// two-phase holds that admits classic deadlocks, so — as a documented
/// extension (DESIGN.md S6) — the lock manager consults this detector
/// before sleeping. The victim is always the requester: its acquire
/// returns kDeadlock and the caller decides whether to abort.

#include <vector>

#include "common/ids.h"
#include "core/kernel.h"

namespace asset {

/// Stateless cycle check over the waits-for edges recorded in the TDs.
class DeadlockDetector {
 public:
  /// The waits-for cycle that blocking `requester` (whose `waiting_for`
  /// must already name the holders it would wait on) would close, in
  /// wait order: the requester first, then the transaction it waits
  /// for, and so on around the cycle. Empty when blocking is safe.
  /// Caller holds the kernel mutex.
  static std::vector<Tid> WouldDeadlock(const TransactionDescriptor* requester,
                                        const TdTable& txns);
};

}  // namespace asset

#endif  // ASSET_CORE_DEADLOCK_DETECTOR_H_
