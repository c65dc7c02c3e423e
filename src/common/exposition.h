#ifndef ASSET_COMMON_EXPOSITION_H_
#define ASSET_COMMON_EXPOSITION_H_

/// \file exposition.h
/// The one Prometheus text-exposition writer. Every metrics line the
/// kernel and the server expose goes through it, so the format lives in
/// one place: a family's `# HELP` and `# TYPE` header is written once, by
/// Family() or by the whole-family Counter()/Gauge()/Summary(), and
/// every LatencyHistogram is a summary — `{quantile="0.5|0.95|0.99"}`
/// samples plus `_sum` and `_count` — written by SummarySamples().

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "common/histogram.h"

namespace asset {

/// Builds one scrape. Not thread-safe; one writer per render.
class ExpositionWriter {
 public:
  /// One `name="value"` pair. Values are written verbatim, so they must
  /// not contain quotes, backslashes or newlines (ours are identifiers).
  using Label = std::pair<std::string_view, std::string_view>;
  using Labels = std::initializer_list<Label>;

  /// Appends to `out` (e.g. a scrape another writer has begun).
  explicit ExpositionWriter(std::string out = {}) : out_(std::move(out)) {}

  /// The family header; call once per family, before its samples.
  /// `type` is "counter", "gauge" or "summary".
  void Family(std::string_view name, std::string_view type,
              std::string_view help) {
    out_.append("# HELP ").append(name).append(" ").append(help);
    out_.append("\n# TYPE ").append(name).append(" ").append(type);
    out_.push_back('\n');
  }

  /// A whole single-sample family.
  void Counter(std::string_view name, std::string_view help, uint64_t v) {
    Family(name, "counter", help);
    Line(name, "", {}, {}, v);
  }
  template <typename Int>
  void Gauge(std::string_view name, std::string_view help, Int v) {
    Family(name, "gauge", help);
    Line(name, "", {}, {}, v);
  }

  /// One label set's samples of summary family `name`.
  void SummarySamples(std::string_view name, Labels labels,
                      const LatencyHistogram::Snapshot& h) {
    Line(name, "", labels, {"quantile", "0.5"}, h.p50());
    Line(name, "", labels, {"quantile", "0.95"}, h.p95());
    Line(name, "", labels, {"quantile", "0.99"}, h.p99());
    Line(name, "_sum", labels, {}, h.sum);
    Line(name, "_count", labels, {}, h.count);
  }
  /// A whole unlabelled summary family.
  void Summary(std::string_view name, std::string_view help,
               const LatencyHistogram::Snapshot& h) {
    Family(name, "summary", help);
    SummarySamples(name, {}, h);
  }

  std::string Take() { return std::move(out_); }

 private:
  /// `name` + `suffix`, then `labels` (and `extra`, if named) in braces.
  template <typename Int>
  void Line(std::string_view name, std::string_view suffix, Labels labels,
            Label extra, Int value) {
    out_.append(name).append(suffix);
    char sep = '{';
    auto label = [&](const Label& l) {
      out_.push_back(sep);
      out_.append(l.first).append("=\"").append(l.second).push_back('"');
      sep = ',';
    };
    for (const Label& l : labels) label(l);
    if (!extra.first.empty()) label(extra);
    if (sep == ',') out_.push_back('}');
    out_.push_back(' ');
    out_.append(std::to_string(value));
    out_.push_back('\n');
  }

  std::string out_;
};

}  // namespace asset

#endif  // ASSET_COMMON_EXPOSITION_H_
