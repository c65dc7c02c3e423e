// The benchmark program: sets a workload up several times, runs its phases
// and prints every metric by name and unit, ending with one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>] [--commit <id>]
//
// Phases, in order:
//   fixed   a fixed number of txns, closed loop; retained_heap_mb is read
//           after it, and the per-layer event counts are taken over it,
//           so faster code does not pay for more work.
//   closed  closed loop for a share of --seconds: txn_per_s, txn_p50/p99,
//           and the counter deltas behind the per-layer metrics.
//   open    open loop at the workload's fixed rate; latency counts from
//           each txn's intended start: the printed open-loop percentiles
//           and bench.gen_late_ms.
//   traced  (--trace 1 only) closed loop with benchmark spans on: the
//           cost ledger and the per-layer times.
// Set-ups are timed before the phases, between them and after them.
// Every phase's txns count toward "attempted" and "failed".

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

/// setup_s is the median of every set-up timed in a run. They are timed
/// in chunks of at least this length and this many set-ups, at five
/// points spread over the run: the host's slow spells last seconds, and
/// set-ups timed in one burst would all fall in the same spell.
constexpr int64_t kSetupChunkNs = 300'000'000;
constexpr int kMinSetupsPerChunk = 3;
/// Logical txns in the fixed-work phase that retained_heap_mb covers.
constexpr uint64_t kFixedWork = 60000;
/// Throughput and latency percentiles are taken per window of this length
/// (by due time) and reported as the median over windows, so a burst of
/// interference from outside the process moves them by at most one
/// window's worth.
constexpr int64_t kWindowNs = 500'000'000;
/// A window counts only if its p99 has at least ten samples beyond it.
constexpr size_t kMinWindowSamples = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".bench_build/data";
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--data-dir <dir>] "
               "[--commit <id>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--data-dir") {
      a.data_dir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

/// splitmix64: decorrelates the per-thread, per-phase generator seeds.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

enum class Mode { kCount, kClosed, kOpen };

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct PhaseResult {
  std::vector<int64_t> latency_ns;  ///< Committed txns, sorted.
  /// The same samples split by kWindowNs window of their due time, each
  /// sorted.
  std::vector<std::vector<int64_t>> windows;
  std::vector<int64_t> late_ns;     ///< Open loop: start minus due time.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t attempts = 0;  ///< Kernel txns or model runs, retries included.
  uint64_t unstarted = 0;  ///< Open loop: due slots never started.
  double elapsed_s = 0;
  size_t full_windows = 0;  ///< Windows wholly inside the phase.
  double max_threads = 0;

  uint64_t committed() const { return attempted - failed; }
  double per_s() const {
    return elapsed_s > 0 ? static_cast<double>(committed()) / elapsed_s : 0;
  }
  /// Median over the full windows of each one's committed txns per second.
  double WindowedRate() const {
    std::vector<double> rates;
    for (size_t w = 0; w < full_windows && w < windows.size(); ++w) {
      rates.push_back(static_cast<double>(windows[w].size()) * 1e9 /
                      static_cast<double>(kWindowNs));
    }
    return rates.empty() ? per_s() : Median(rates);
  }
  /// Median over the full windows of each one's exact p-th percentile;
  /// the whole phase's percentile if no window is full.
  double WindowedPercentile(double p) const {
    std::vector<int64_t> per_window;
    for (const auto& w : windows) {
      if (w.size() >= kMinWindowSamples) per_window.push_back(Percentile(w, p));
    }
    if (per_window.empty()) return static_cast<double>(Percentile(latency_ns, p));
    std::sort(per_window.begin(), per_window.end());
    const size_t n = per_window.size();
    return n % 2 ? static_cast<double>(per_window[n / 2])
                 : (static_cast<double>(per_window[n / 2 - 1]) +
                    static_cast<double>(per_window[n / 2])) / 2;
  }
};

/// Runs one phase on `workers` threads. kCount runs `count` txns; kClosed
/// runs until `seconds` pass; kOpen starts txn i at start + i / rate.
PhaseResult RunPhase(Workload& wl, int workers, Mode mode, uint64_t count,
                     double seconds, double rate, uint64_t seed) {
  struct PerWorker {
    std::vector<int64_t> late_ns;
    std::vector<std::pair<int64_t, int64_t>> samples;  ///< (due, latency)
    uint64_t attempted = 0, failed = 0, attempts = 0, unstarted = 0;
  };
  std::vector<PerWorker> per(static_cast<size_t>(workers));
  std::atomic<uint64_t> next{0};
  std::atomic<int> running{workers};
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const double period_ns = mode == Mode::kOpen ? 1e9 / rate : 0;

  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      PerWorker& me = per[static_cast<size_t>(w)];
      std::mt19937_64 rng(Mix(seed * 64 + static_cast<uint64_t>(w)));
      for (;;) {
        int64_t due = 0;
        if (mode == Mode::kOpen) {
          const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
          due = start + static_cast<int64_t>(static_cast<double>(i) *
                                             period_ns);
          if (due >= end) break;
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(due)));
          const int64_t now = NowNs();
          if (now >= end) {
            // The generator fell behind: this slot and every later due one
            // never start. Each counts as waiting until the phase ended.
            const auto slots = static_cast<uint64_t>(
                static_cast<double>(end - start) / period_ns);
            for (uint64_t j = i; j < slots; j = next.fetch_add(1)) {
              const int64_t wait =
                  now - (start + static_cast<int64_t>(
                                     static_cast<double>(j) * period_ns));
              me.late_ns.push_back(wait);
              me.samples.emplace_back(now - wait, wait);
              me.unstarted++;
            }
            break;
          }
          me.late_ns.push_back(now - due);
        } else if (mode == Mode::kCount) {
          if (next.fetch_add(1, std::memory_order_relaxed) >= count) break;
          due = NowNs();
        } else {
          due = NowNs();
          if (due >= end) break;
        }
        const TxnOutcome out = wl.RunTxn(w, rng);
        const int64_t done = NowNs();
        me.attempted++;
        me.attempts += out.attempts;
        if (out.ok) {
          me.samples.emplace_back(due, done - due);
        } else {
          me.failed++;
        }
      }
      running.fetch_sub(1);
    });
  }
  PhaseResult r;
  while (running.load() > 0) {
    r.max_threads = std::max(r.max_threads, ProcStatusField("Threads"));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& t : threads) t.join();
  r.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  if (mode != Mode::kCount) {
    r.full_windows = static_cast<size_t>((end - start) / kWindowNs);
  }
  for (PerWorker& p : per) {
    for (const auto& [due, latency] : p.samples) {
      const auto w = static_cast<size_t>((due - start) / kWindowNs);
      if (w >= r.windows.size()) r.windows.resize(w + 1);
      r.windows[w].push_back(latency);
      r.latency_ns.push_back(latency);
    }
    r.late_ns.insert(r.late_ns.end(), p.late_ns.begin(), p.late_ns.end());
    r.attempted += p.attempted;
    r.failed += p.failed;
    r.attempts += p.attempts;
    r.unstarted += p.unstarted;
  }
  std::sort(r.latency_ns.begin(), r.latency_ns.end());
  for (auto& w : r.windows) std::sort(w.begin(), w.end());
  std::sort(r.late_ns.begin(), r.late_ns.end());
  return r;
}

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

/// Bytes in live heap allocations, mmapped ones included, in MB.
double HeapInUseMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// Sets `wl` up again and again for one chunk, appending each set-up's
/// seconds to `out`. Leaves `wl` set up.
void TimeSetups(Workload& wl, std::vector<double>* out) {
  const int64_t start = NowNs();
  for (int i = 0; i < kMinSetupsPerChunk || NowNs() - start < kSetupChunkNs;
       ++i) {
    wl.Teardown();
    const int64_t t0 = NowNs();
    wl.Setup();
    out->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
}

/// Counter deltas over a phase, with absent names reading 0.
struct Delta {
  Counters before, after;
  double operator[](const std::string& key) const {
    auto a = after.find(key);
    auto b = before.find(key);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  }
};

void ReadAll(Workload& wl, Counters* c) {
  wl.ReadCounters(c);
  const ProcCounters p = ReadProcCounters();
  (*c)["proc.cpu_us"] = p.cpu_us;
  (*c)["proc.vcsw"] = p.vcsw;
  (*c)["proc.ivcsw"] = p.ivcsw;
  (*c)["proc.write_bytes"] = p.write_bytes;
  (*c)["host.steal_ticks"] = p.steal_ticks;
  (*c)["host.all_ticks"] = p.all_ticks;
}

void PrintPercentiles(const char* what, const PhaseResult& r) {
  size_t full = 0;
  for (const auto& w : r.windows) full += w.size() >= kMinWindowSamples;
  std::printf(
      "%-14s n=%zu p50=%.3f us p99=%.3f us max=%.3f us; windowed p50=%.3f "
      "us p99=%.3f us over %zu windows of %.1f s\n",
      what, r.latency_ns.size(), Percentile(r.latency_ns, 50) / 1e3,
      Percentile(r.latency_ns, 99) / 1e3, Percentile(r.latency_ns, 100) / 1e3,
      r.WindowedPercentile(50) / 1e3, r.WindowedPercentile(99) / 1e3, full,
      kWindowNs / 1e9);
}

/// Per-layer metrics from the untraced closed phase's counter deltas, the
/// traced phase's ledger, and the open phase's generator lateness. Event
/// counts that are not divided by txns come from the fixed-work phase's
/// deltas `fixed_d`, so faster code, which commits more in the timed
/// phases, does not also show more of them.
std::map<std::string, double> LayerMetrics(const Delta& fixed_d,
                                           const Delta& d,
                                           const PhaseResult& closed,
                                           const PhaseResult& open,
                                           const PhaseResult& traced,
                                           const Ledger& ledger) {
  const double n = static_cast<double>(closed.committed());
  const double txns = static_cast<double>(ledger.txns);
  auto per_txn_us = [&](const char* span) {
    auto it = ledger.rows.find(span);
    return it == ledger.rows.end() ? 0
                                   : Div(it->second.inclusive_ns, txns) / 1e3;
  };
  auto mean_us = [&](const std::string& hist) {
    return Div(d[hist + ".sum"], d[hist + ".count"]) / 1e3;
  };
  auto unattributed = ledger.rows.find("unattributed");
  std::map<std::string, double> m;
  m["client.flush_us"] = per_txn_us("client.flush");
  m["client.reply_wait_us"] = per_txn_us("client.reply_wait");
  m["client.retries_per_txn"] = Div(d["cli.retries"], n);
  m["api.bytes_per_txn"] = Div(d["srv.bytes"], n);
  m["api.frames_per_txn"] = Div(d["srv.frames"], n);
  m["api.codec_ns_per_txn"] = 0;  // set by Verify on the wire
  m["server.queue_us"] = mean_us("srv.queue");
  m["server.execute_us"] = mean_us("srv.execute");
  m["server.flush_us"] = mean_us("srv.flush");
  m["server.backpressure_pauses"] = fixed_d["srv.backpressure_pauses"];
  m["core.begin_us"] = ledger.MeanInclusiveNs("core.begin") / 1e3;
  m["core.op_us"] = ledger.MeanInclusiveNs("core.op") / 1e3;
  m["core.commit_us"] = ledger.MeanInclusiveNs("core.commit") / 1e3;
  m["core.lock_waits_per_txn"] = Div(d["k.lock_waits"], n);
  m["core.lock_wait_us"] = mean_us("k.lock_wait_latency");
  m["core.deadlocks_per_commit"] = Div(d["k.deadlocks"], n);
  m["core.attempts_per_commit"] =
      Div(static_cast<double>(closed.attempts), n);
  m["core.lock_wakeups_per_txn"] = Div(d["k.lock_wakeups"], n);
  m["core.handoff_us"] = Div(ledger.LayerSelfNs("models"), txns) / 1e3;
  m["core.txn_wakeups_per_txn"] = Div(d["k.txn_wakeups"], n);
  m["core.permit_checks_per_txn"] = Div(d["k.permit_checks"], n);
  m["core.permit_hits_per_txn"] = Div(d["k.permit_hits"], n);
  m["core.delegations_per_txn"] = Div(d["k.delegations"], n);
  m["core.dependencies_per_txn"] = Div(d["k.dependencies_formed"], n);
  m["core.undo_installs_per_txn"] = Div(d["k.undo_installs"], n);
  m["models.atomic_us"] = ledger.MeanInclusiveNs("models.atomic") / 1e3;
  m["models.saga_us"] = ledger.MeanInclusiveNs("models.saga") / 1e3;
  m["models.nested_us"] = ledger.MeanInclusiveNs("models.nested") / 1e3;
  m["models.distributed_us"] =
      ledger.MeanInclusiveNs("models.distributed") / 1e3;
  m["models.compensations_per_saga"] =
      Div(d["models.compensations"], d["models.sagas"]);
  m["proc.threads"] = closed.max_threads;
  m["storage.wal_appends_per_txn"] = Div(d["k.wal_appends"], n);
  m["storage.fsyncs_per_commit"] = Div(d["k.wal_fsyncs"], n);
  m["storage.records_per_fsync"] =
      Div(d["k.wal_records_flushed"], d["k.wal_fsyncs"]);
  m["storage.fsync_us"] = mean_us("k.fsync_latency");
  m["storage.commit_stalls_per_commit"] = Div(d["k.commit_stalls"], n);
  m["storage.write_bytes_per_user_byte"] =
      Div(d["proc.write_bytes"], d["user_bytes"]);
  m["storage.checkpoints"] = fixed_d["k.checkpoints"];
  m["storage.checkpoint_us"] = mean_us("k.checkpoint_latency");
  m["storage.wal_truncations"] = fixed_d["k.wal_truncations"];
  m["storage.recovery_ms"] = 0;  // set by Verify where the workload reopens
  m["storage.pool_hit_ratio"] =
      Div(d["pool.hits"], d["pool.hits"] + d["pool.misses"]);
  m["storage.pool_evictions_per_txn"] = Div(d["pool.evictions"], n);
  m["proc.cpu_us_per_txn"] = Div(d["proc.cpu_us"], n);
  m["proc.vcsw_per_txn"] = Div(d["proc.vcsw"], n);
  m["proc.ivcsw_per_txn"] = Div(d["proc.ivcsw"], n);
  m["bench.gen_late_ms"] = Percentile(open.late_ns, 99) / 1e6;
  m["bench.trace_overhead_frac"] = 1 - Div(traced.per_s(), closed.per_s());
  m["bench.unattributed_frac"] =
      unattributed == ledger.rows.end()
          ? 0
          : Div(unattributed->second.self_ns, ledger.wall_ns);
  return m;
}

/// Writes the traced phase's spans, one JSON object a line.
void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"txn\":%" PRIu64
                 ",\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 s.id, s.parent, s.txn, s.name, s.start_ns, s.end_ns);
  }
  std::fclose(f);
}

int Run(const Args& args) {
  if (AssertionsEnabled()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a build with assertions "
                 "(%s); build Release\n",
                 BuildType());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.data_dir, ec);
  const int workers = static_cast<int>(std::clamp<long>(
      sysconf(_SC_NPROCESSORS_ONLN), 1, kMaxWorkers));
  std::unique_ptr<Workload> wl =
      MakeWorkload(args.workload, workers, args.seed, args.data_dir);
  if (wl == nullptr) Usage(("unknown workload " + args.workload).c_str());
  std::printf("env %s\n",
              EnvironmentJson(args.commit, args.data_dir).c_str());
  std::printf("workload %s seed %" PRIu64 " seconds %g workers %d trace %d\n",
              args.workload.c_str(), args.seed, args.seconds, workers,
              args.trace ? 1 : 0);

  // Set-ups between the phases run on a second instance, so the measured
  // one keeps its state; they stay outside every counter delta.
  std::unique_ptr<Workload> probe = MakeWorkload(
      args.workload, workers, args.seed, args.data_dir + "/setup-probe");
  auto time_probe_setups = [&](std::vector<double>* out) {
    TimeSetups(*probe, out);
    probe->Teardown();
  };
  std::vector<double> setups;
  TimeSetups(*wl, &setups);

  const uint64_t seed = args.seed;
  std::printf("memory after setup: heap in use %.3f MB, resident %.3f MB, "
              "high-water %.3f MB\n",
              HeapInUseMb(), ProcStatusField("VmRSS") / 1024.0,
              ProcStatusField("VmHWM") / 1024.0);
  Delta fixed_delta;
  ReadAll(*wl, &fixed_delta.before);
  const PhaseResult fixed =
      RunPhase(*wl, workers, Mode::kCount, kFixedWork, 0, 0, seed);
  ReadAll(*wl, &fixed_delta.after);
  // Heap the program still holds after the fixed work, after a checkpoint
  // has truncated the WAL tail. Not resident memory: VmRSS after
  // malloc_trim moved between 41 and 60 MB across runs of the same code on
  // durable_commit while the live heap stayed within 13.1-13.4 MB; the
  // difference was free heap that the allocator kept, in amounts set by
  // how the worker threads' allocations interleaved.
  const double hwm_mb = ProcStatusField("VmHWM") / 1024.0;
  if (asset::Status s = wl->database().Checkpoint(); !s.ok()) {
    std::fprintf(stderr, "perfbench: Checkpoint: %s\n", s.ToString().c_str());
    return 1;
  }
  const double retained_heap_mb = HeapInUseMb();
  std::printf("memory after %" PRIu64 " txns: heap in use %.3f MB, "
              "resident %.3f MB, high-water %.3f MB\n",
              fixed.attempted, retained_heap_mb,
              ProcStatusField("VmRSS") / 1024.0, hwm_mb);
  time_probe_setups(&setups);

  // Time shares of --seconds: closed and open halves, or thirds with the
  // traced phase.
  const double share = args.seconds / (args.trace ? 3 : 2);
  Delta delta;
  ReadAll(*wl, &delta.before);
  const PhaseResult closed =
      RunPhase(*wl, workers, Mode::kClosed, 0, share, 0, seed + 1);
  ReadAll(*wl, &delta.after);
  time_probe_setups(&setups);
  const PhaseResult open = RunPhase(*wl, workers, Mode::kOpen, 0, share,
                                    wl->open_rate(), seed + 2);
  time_probe_setups(&setups);
  PhaseResult traced;
  Ledger ledger;
  if (args.trace) {
    SetTracing(true);
    traced = RunPhase(*wl, workers, Mode::kClosed, 0, share, 0, seed + 3);
    SetTracing(false);
    const std::vector<Span> spans = DrainSpans();
    ledger = BuildLedger(spans);
    WriteSpans(spans, args.data_dir + "/spans." + args.workload + ".jsonl");
  }

  std::map<std::string, double> layer;
  if (args.trace) {
    layer = LayerMetrics(fixed_delta, delta, closed, open, traced, ledger);
  }
  const std::string wrong = wl->Verify(&layer);
  TimeSetups(*wl, &setups);
  wl->Teardown();
  std::printf("setup         n=%zu median=%.6f s min=%.6f s max=%.6f s\n",
              setups.size(), Median(setups),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));

  const uint64_t attempted =
      fixed.attempted + closed.attempted + open.attempted + traced.attempted;
  const uint64_t failed =
      fixed.failed + closed.failed + open.failed + traced.failed;
  const bool correct = wrong.empty() && failed == 0;
  if (!wrong.empty()) {
    std::printf("check FAILED: %s\n", wrong.c_str());
  } else {
    std::printf("check ok\n");
  }

  std::map<std::string, double> e2e;
  e2e["setup_s"] = Median(setups);
  e2e["txn_per_s"] = closed.WindowedRate();
  e2e["txn_p50_us"] = closed.WindowedPercentile(50) / 1e3;
  e2e["retained_heap_mb"] = retained_heap_mb;

  PrintPercentiles("closed", closed);
  PrintPercentiles("open", open);
  std::printf(
      "open loop     rate=%g/s achieved=%.1f/s late p99=%.3f ms "
      "unstarted=%" PRIu64 "\n",
      wl->open_rate(), open.per_s(), Percentile(open.late_ns, 99) / 1e6,
      open.unstarted);
  // Not a metric: how much CPU the host took from this machine while the
  // closed phase ran. Throughput fell to 40% in runs where it reached a
  // quarter, while the p50 rose 10-20%.
  std::printf("host steal    %.1f%% of CPU time during the closed phase\n",
              100 * Div(delta["host.steal_ticks"], delta["host.all_ticks"]));
  std::printf("failed_frac   %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              Div(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);
  for (const MetricDef& m : kEndToEnd) {
    std::printf("e2e   %-36s %.6g %s\n", m.name, e2e.at(m.name), m.unit);
  }
  if (args.trace) {
    std::printf("ledger %s (traced closed loop, us per logical txn)\n%s",
                args.workload.c_str(), ledger.Render().c_str());
    for (const MetricDef& m : kPerLayer) {
      std::printf("layer %-36s %.6g %s\n", m.name, layer.at(m.name), m.unit);
    }
  }

  const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
  const size_t ndefs = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  const std::map<std::string, double>& values = args.trace ? layer : e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < ndefs; ++i) {
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, values.at(defs[i].name),
                  defs[i].unit);
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
