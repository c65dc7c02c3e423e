#ifndef ASSET_PERFBENCH_HARNESS_H_
#define ASSET_PERFBENCH_HARNESS_H_

/// \file harness.h
/// The benchmark's own measuring tools, independent of any workload:
/// exact percentiles over raw samples, the benchmark-side span recorder
/// with its cost ledger, process counters, and the environment block.
///
/// Spans are recorded by the benchmark around its calls into the
/// system's layers; nothing inside src/ is instrumented. Span names are
/// "<layer>.<call>" string literals, and the layer is the prefix.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

// --- Exact percentiles ---------------------------------------------------

/// Nearest-rank percentile (0 < p <= 100) of `sorted`, which must be in
/// ascending order: the smallest sample with at least p% of the samples
/// at or below it. Zero for an empty vector.
int64_t Percentile(const std::vector<int64_t>& sorted, double p);

// --- Spans ---------------------------------------------------------------

struct Span {
  uint64_t id = 0;      ///< Unique across threads; never 0.
  uint64_t parent = 0;  ///< 0 for a logical transaction's root span.
  uint64_t txn = 0;     ///< Logical transaction the span belongs to.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Turns span recording on or off for the whole process. Flip it only
/// while no span is open.
void SetTracing(bool on);

/// A span around one call, a child of the calling thread's innermost open
/// span. Does nothing while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;  ///< Slot in this thread's log; -1 when untraced.
  uint64_t saved_parent_ = 0;
  uint64_t saved_txn_ = 0;
};

/// Calls `fn` inside a span named `name` and returns its result.
template <typename F>
auto InSpan(const char* name, F&& fn) {
  ScopedSpan span(name);
  return fn();
}

/// The root span of one logical transaction ("txn"), with a fresh txn id.
class TxnSpan {
 public:
  TxnSpan();
  ~TxnSpan() = default;
  TxnSpan(const TxnSpan&) = delete;
  TxnSpan& operator=(const TxnSpan&) = delete;

 private:
  struct Fresh {
    Fresh();
  } fresh_;  ///< Starts a new txn id before span_ opens.
  ScopedSpan span_;
};

/// Where a span opened on another thread should hang: the caller's
/// innermost open span and txn. Transaction bodies run on kernel threads,
/// so the benchmark captures this before handing a body to a model call.
struct SpanContext {
  uint64_t parent = 0;
  uint64_t txn = 0;
};
SpanContext CurrentSpanContext();

/// Makes `ctx` the calling thread's current span for its lifetime.
class AdoptSpanContext {
 public:
  explicit AdoptSpanContext(SpanContext ctx);
  ~AdoptSpanContext();
  AdoptSpanContext(const AdoptSpanContext&) = delete;
  AdoptSpanContext& operator=(const AdoptSpanContext&) = delete;

 private:
  uint64_t saved_parent_ = 0;
  uint64_t saved_txn_ = 0;
};

/// Moves every thread's recorded spans out. Call only when no span is
/// open and the threads that recorded them are quiescent.
std::vector<Span> DrainSpans();

// --- Cost ledger ---------------------------------------------------------

/// Per-span-name totals over every logical transaction in a span set.
struct LedgerRow {
  uint64_t calls = 0;
  double inclusive_ns = 0;  ///< Summed span durations.
  double self_ns = 0;       ///< Wall time charged to this span (see below).
};

/// Charges each instant of every logical transaction's wall time to the
/// innermost spans open at that instant, split equally among parallel
/// branches. The root's share is "unattributed". Rows therefore add up to
/// the summed root durations exactly, overlap or not; for properly nested
/// spans a row's self time is its duration minus its children's.
struct Ledger {
  uint64_t txns = 0;
  double wall_ns = 0;  ///< Summed root ("txn") span durations.
  std::map<std::string, LedgerRow> rows;  ///< By span name.

  /// Sum of self_ns over the rows whose name starts with `layer` + ".".
  double LayerSelfNs(const std::string& layer) const;
  /// Mean duration of spans named `name` (0 if none).
  double MeanInclusiveNs(const std::string& name) const;
  /// Human-readable table: one line per layer and span, us per txn.
  std::string Render() const;
};

Ledger BuildLedger(const std::vector<Span>& spans);

// --- Process counters ----------------------------------------------------

struct ProcCounters {
  double cpu_us = 0;  ///< User + system CPU time.
  double vcsw = 0;    ///< Voluntary context switches.
  double ivcsw = 0;   ///< Involuntary context switches.
  double write_bytes = 0;  ///< /proc/self/io write_bytes (0 if unreadable).
  /// Whole-machine ticks from /proc/stat: those the hypervisor gave to
  /// other guests while this one had work, and all of them.
  double steal_ticks = 0;
  double all_ticks = 0;
};
ProcCounters ReadProcCounters();

/// A numeric field of /proc/self/status in kB (VmHWM, VmRSS) or as a
/// count (Threads); -1 if absent.
double ProcStatusField(const char* field);

// --- Environment block ---------------------------------------------------

/// One JSON object describing where and how the numbers were made:
/// nproc, CPU model, build type, compiler, commit, and the filesystem
/// type under `data_dir` (where file-backed workloads keep their WAL).
std::string EnvironmentJson(const std::string& commit,
                            const std::string& data_dir);

/// The CMake build type this binary was compiled as.
const char* BuildType();
/// True when assertions are compiled in (a Debug-style build).
bool AssertionsEnabled();

}  // namespace perfbench

#endif  // ASSET_PERFBENCH_HARNESS_H_
