#include "core/introspection.h"

#include <cstdio>
#include <sstream>

#include "common/exposition.h"

namespace asset {

namespace {

/// Minimal JSON string escaper (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendTidArray(const std::vector<Tid>& tids, std::ostringstream& os) {
  os << "[";
  for (size_t i = 0; i < tids.size(); ++i) {
    if (i != 0) os << ",";
    os << tids[i];
  }
  os << "]";
}

/// ObjectSet as JSON: the string "*" for the wildcard, else an id array.
void AppendObjectSet(const ObjectSet& objs, std::ostringstream& os) {
  if (objs.IsAll()) {
    os << "\"*\"";
    return;
  }
  os << "[";
  for (size_t i = 0; i < objs.ids().size(); ++i) {
    if (i != 0) os << ",";
    os << objs.ids()[i];
  }
  os << "]";
}

}  // namespace

std::string RenderKernelStateJson(const KernelStateSnapshot& snap,
                                  const WalWatermarks& wal) {
  std::ostringstream os;
  os << "{\"transactions\":[";
  for (size_t i = 0; i < snap.transactions.size(); ++i) {
    const auto& t = snap.transactions[i];
    if (i != 0) os << ",";
    os << "{\"tid\":" << t.tid << ",\"parent\":" << t.parent
       << ",\"status\":\"" << TxnStatusToString(t.status) << "\""
       << ",\"session\":" << (t.session ? "true" : "false")
       << ",\"locks_held\":" << t.locks_held
       << ",\"ops_responsible\":" << t.ops_responsible
       << ",\"commit_lsn\":" << t.commit_lsn;
    if (!t.abort_reason.empty()) {
      os << ",\"abort_reason\":\"" << JsonEscape(t.abort_reason) << "\"";
    }
    os << "}";
  }
  os << "],\"wait_for\":[";
  for (size_t i = 0; i < snap.wait_for.size(); ++i) {
    const auto& w = snap.wait_for[i];
    if (i != 0) os << ",";
    os << "{\"waiter\":" << w.waiter << ",\"oid\":" << w.oid
       << ",\"blockers\":";
    AppendTidArray(w.blockers, os);
    os << "}";
  }
  os << "],\"dependencies\":[";
  for (size_t i = 0; i < snap.dependencies.size(); ++i) {
    const Dependency& d = snap.dependencies[i];
    if (i != 0) os << ",";
    os << "{\"dependent\":" << d.dependent << ",\"dependee\":" << d.dependee
       << ",\"type\":\"" << DependencyTypeToString(d.type) << "\"}";
  }
  os << "],\"permits\":[";
  for (size_t i = 0; i < snap.permits.size(); ++i) {
    const Permit& p = snap.permits[i];
    if (i != 0) os << ",";
    os << "{\"grantor\":" << p.grantor << ",\"grantee\":" << p.grantee
       << ",\"objects\":";
    AppendObjectSet(p.objects, os);
    os << ",\"ops\":\"" << JsonEscape(p.ops.ToString()) << "\""
       << ",\"direct\":" << (p.direct ? "true" : "false") << "}";
  }
  os << "],\"last_deadlock_cycle\":";
  AppendTidArray(snap.last_deadlock_cycle, os);
  os << ",\"wal\":{\"last_lsn\":" << wal.last_lsn
     << ",\"durable_lsn\":" << wal.durable_lsn
     << ",\"checkpoint_lsn\":" << wal.checkpoint_lsn
     << ",\"min_recovery_lsn\":" << wal.min_recovery_lsn << "}}";
  return os.str();
}

std::string RenderWaitForDot(const KernelStateSnapshot& snap) {
  std::ostringstream os;
  os << "digraph wait_for {\n";
  for (const auto& t : snap.transactions) {
    os << "  t" << t.tid << " [label=\"t" << t.tid << "\\n"
       << TxnStatusToString(t.status) << "\"];\n";
  }
  for (const auto& w : snap.wait_for) {
    for (Tid b : w.blockers) {
      os << "  t" << w.waiter << " -> t" << b << " [label=\"ob "
         << w.oid << "\"];\n";
    }
  }
  // The most recently resolved deadlock, dashed: the victim's edge is
  // gone from wait_for by the time anyone dumps.
  const auto& cycle = snap.last_deadlock_cycle;
  for (size_t i = 0; i + 1 < cycle.size(); ++i) {
    os << "  t" << cycle[i] << " -> t" << cycle[i + 1]
       << " [style=dashed,color=red];\n";
  }
  if (cycle.size() > 1) {
    os << "  t" << cycle.back() << " -> t" << cycle.front()
       << " [style=dashed,color=red];\n";
  }
  os << "}\n";
  return os.str();
}

std::string RenderMetricsText(const KernelStats::Snapshot& stats,
                              const WalWatermarks& wal,
                              size_t kernel_threads) {
  ExpositionWriter w;
#define ASSET_METRIC_COUNTER(group, field, label)                  \
  w.Counter("asset_" #group "_" #label "_total",                   \
            "Kernel counter " #group "/" #label ".", stats.field);
  ASSET_KERNEL_COUNTERS(ASSET_METRIC_COUNTER)
#undef ASSET_METRIC_COUNTER
#define ASSET_METRIC_SUMMARY(field)                                \
  w.Summary("asset_" #field "_ns",                                 \
            "Kernel " #field " histogram, nanoseconds.", stats.field);
  ASSET_KERNEL_HISTOGRAMS(ASSET_METRIC_SUMMARY)
#undef ASSET_METRIC_SUMMARY
  w.Gauge("asset_wal_last_lsn", "Highest LSN appended to the WAL.",
          wal.last_lsn);
  w.Gauge("asset_wal_durable_lsn", "Highest LSN known durable on disk.",
          wal.durable_lsn);
  w.Gauge("asset_wal_checkpoint_lsn", "LSN of the last fuzzy checkpoint.",
          wal.checkpoint_lsn);
  w.Gauge("asset_wal_min_recovery_lsn",
          "Oldest LSN recovery would need to replay.",
          wal.min_recovery_lsn);
  w.Gauge("asset_kernel_threads",
          "Worker threads in the transaction-body pool.", kernel_threads);
  return w.Take();
}

}  // namespace asset
