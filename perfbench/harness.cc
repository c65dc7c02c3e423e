#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// --- Spans ---------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_txn{1};

/// One thread's spans. Owned by the registry so spans recorded on kernel
/// threads survive those threads.
struct ThreadLog {
  uint64_t slot = 0;
  std::vector<Span> spans;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadLog>> g_registry;  // guarded by g_registry_mu

thread_local ThreadLog* tl_log = nullptr;
thread_local uint64_t tl_parent = 0;
thread_local uint64_t tl_txn = 0;

ThreadLog* Log() {
  if (tl_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadLog>());
    tl_log = g_registry.back().get();
    tl_log->slot = g_registry.size();
    tl_log->spans.reserve(1 << 16);
  }
  return tl_log;
}

constexpr int kSlotShift = 40;

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name) {
  if (!Tracing()) return;
  ThreadLog* log = Log();
  index_ = static_cast<int64_t>(log->spans.size());
  Span s;
  s.id = (log->slot << kSlotShift) | static_cast<uint64_t>(index_ + 1);
  s.parent = tl_parent;
  s.txn = tl_txn;
  s.name = name;
  s.start_ns = NowNs();
  log->spans.push_back(s);
  saved_parent_ = tl_parent;
  saved_txn_ = tl_txn;
  tl_parent = s.id;
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  tl_log->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  tl_parent = saved_parent_;
  tl_txn = saved_txn_;
}

TxnSpan::Fresh::Fresh() {
  if (!Tracing()) return;
  tl_parent = 0;
  tl_txn = g_next_txn.fetch_add(1, std::memory_order_relaxed);
}

TxnSpan::TxnSpan() : span_("txn") {}

SpanContext CurrentSpanContext() { return SpanContext{tl_parent, tl_txn}; }

AdoptSpanContext::AdoptSpanContext(SpanContext ctx)
    : saved_parent_(tl_parent), saved_txn_(tl_txn) {
  tl_parent = ctx.parent;
  tl_txn = ctx.txn;
}

AdoptSpanContext::~AdoptSpanContext() {
  tl_parent = saved_parent_;
  tl_txn = saved_txn_;
}

std::vector<Span> DrainSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> out;
  for (auto& log : g_registry) {
    out.insert(out.end(), log->spans.begin(), log->spans.end());
    log->spans.clear();
  }
  return out;
}

// --- Cost ledger ---------------------------------------------------------

namespace {

/// Adds one logical transaction's spans (root first or not) to `ledger`.
void ChargeTxn(const std::vector<const Span*>& spans, Ledger* ledger) {
  const Span* root = nullptr;
  for (const Span* s : spans) {
    if (s->parent == 0) root = s;
  }
  if (root == nullptr || root->end_ns < root->start_ns) return;
  ledger->txns++;
  ledger->wall_ns += static_cast<double>(root->end_ns - root->start_ns);

  // Spans clipped to the root's interval; ids index into `live`.
  std::vector<const Span*> live;
  std::vector<int64_t> cuts;
  for (const Span* s : spans) {
    if (s->end_ns < s->start_ns) continue;  // never closed
    LedgerRow& row = ledger->rows[s == root ? "unattributed" : s->name];
    if (s != root) {
      row.calls++;
      row.inclusive_ns += static_cast<double>(s->end_ns - s->start_ns);
    }
    live.push_back(s);
    cuts.push_back(std::clamp(s->start_ns, root->start_ns, root->end_ns));
    cuts.push_back(std::clamp(s->end_ns, root->start_ns, root->end_ns));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<char> open(live.size());
  std::vector<char> has_open_child(live.size());
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const int64_t lo = cuts[c];
    const int64_t hi = cuts[c + 1];
    for (size_t i = 0; i < live.size(); ++i) {
      open[i] = live[i]->start_ns <= lo && live[i]->end_ns >= hi;
      has_open_child[i] = 0;
    }
    for (size_t i = 0; i < live.size(); ++i) {
      if (!open[i] || live[i] == root) continue;
      for (size_t j = 0; j < live.size(); ++j) {
        if (open[j] && live[j]->id == live[i]->parent) has_open_child[j] = 1;
      }
    }
    size_t leaves = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      leaves += open[i] && !has_open_child[i];
    }
    if (leaves == 0) continue;
    const double share = static_cast<double>(hi - lo) /
                         static_cast<double>(leaves);
    for (size_t i = 0; i < live.size(); ++i) {
      if (open[i] && !has_open_child[i]) {
        ledger->rows[live[i] == root ? "unattributed" : live[i]->name]
            .self_ns += share;
      }
    }
  }
}

std::string LayerOf(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

Ledger BuildLedger(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> by_txn;
  for (const Span& s : spans) by_txn[s.txn].push_back(&s);
  Ledger ledger;
  for (auto& [txn, members] : by_txn) ChargeTxn(members, &ledger);
  return ledger;
}

double Ledger::LayerSelfNs(const std::string& layer) const {
  double total = 0;
  for (const auto& [name, row] : rows) {
    if (LayerOf(name) == layer && name != layer) total += row.self_ns;
  }
  return total;
}

double Ledger::MeanInclusiveNs(const std::string& name) const {
  auto it = rows.find(name);
  if (it == rows.end() || it->second.calls == 0) return 0;
  return it->second.inclusive_ns / static_cast<double>(it->second.calls);
}

std::string Ledger::Render() const {
  std::ostringstream out;
  char line[160];
  const double per_txn = txns == 0 ? 0 : 1e-3 / static_cast<double>(txns);
  std::snprintf(line, sizeof line, "  %-24s %12s %8s %12s\n", "span",
                "self us/txn", "share", "calls/txn");
  out << line;
  std::map<std::string, double> layers;
  double sum = 0;
  for (const auto& [name, row] : rows) {
    layers[LayerOf(name)] += row.self_ns;
    sum += row.self_ns;
  }
  for (const auto& [layer, self_ns] : layers) {
    std::snprintf(line, sizeof line, "  %-24s %12.3f %7.1f%%\n",
                  layer.c_str(), self_ns * per_txn,
                  wall_ns == 0 ? 0 : 100.0 * self_ns / wall_ns);
    out << line;
    for (const auto& [name, row] : rows) {
      if (LayerOf(name) != layer || name == layer) continue;
      std::snprintf(line, sizeof line, "    %-22s %12.3f %7.1f%% %12.3f\n",
                    name.c_str(), row.self_ns * per_txn,
                    wall_ns == 0 ? 0 : 100.0 * row.self_ns / wall_ns,
                    txns == 0 ? 0
                              : static_cast<double>(row.calls) /
                                    static_cast<double>(txns));
      out << line;
    }
  }
  std::snprintf(line, sizeof line,
                "  %-24s %12.3f   (txn wall %.3f us, %llu txns)\n", "sum",
                sum * per_txn, wall_ns * per_txn,
                static_cast<unsigned long long>(txns));
  out << line;
  return out.str();
}

// --- Process counters ----------------------------------------------------

ProcCounters ReadProcCounters() {
  ProcCounters c;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    c.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                   1e6 +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    c.vcsw = static_cast<double>(ru.ru_nvcsw);
    c.ivcsw = static_cast<double>(ru.ru_nivcsw);
  }
  std::ifstream io("/proc/self/io");
  std::string key;
  double value = 0;
  while (io >> key >> value) {
    if (key == "write_bytes:") c.write_bytes = value;
  }
  // "cpu user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user and nice.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> value; ++i) {
    c.all_ticks += value;
    if (i == 7) c.steal_ticks = value;
  }
  return c;
}

double ProcStatusField(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return -1;
}

// --- Environment block ---------------------------------------------------

const char* BuildType() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

bool AssertionsEnabled() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs fs{};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

}  // namespace

std::string EnvironmentJson(const std::string& commit,
                            const std::string& data_dir) {
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": \"" << JsonEscape(CpuModel())
      << "\", \"build_type\": \"" << JsonEscape(BuildType())
      << "\", \"assertions\": " << (AssertionsEnabled() ? "true" : "false")
      << ", \"compiler\": \"" << JsonEscape(__VERSION__)
      << "\", \"commit\": \"" << JsonEscape(commit)
      << "\", \"wal_filesystem\": \"" << FilesystemOf(data_dir) << "\"}";
  return out.str();
}

}  // namespace perfbench
