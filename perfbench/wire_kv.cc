// wire_kv: read-mostly pipelined session transactions over loopback to an
// in-process Server on an in-memory Database whose working set is about
// four times the buffer pool. This is where client, api, server and the
// pool's miss path work; conflicts are rare and nothing is fsynced.

#include <chrono>
#include <cstdio>
#include <sstream>

#include "api/command.h"
#include "client/client.h"
#include "harness.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {
namespace {

using asset::api::Command;
using asset::api::Reply;

constexpr size_t kPoolPages = 64;
// 64-byte values pack about 100 to a page, so 25600 objects fill about
// 256 pages: four times the pool.
constexpr uint64_t kObjects = 25600;
constexpr size_t kValueSize = 64;
constexpr int kReadsPerReadTxn = 4;
// One write txn per kReadOnlyPerWrite read-only ones.
constexpr uint64_t kReadOnlyPerWrite = 3;

class WireKv : public Workload {
 public:
  WireKv(int workers, uint64_t seed) : workers_(workers), seed_(seed) {}
  ~WireKv() override { Teardown(); }

  void Setup() override {
    Teardown();
    db_ = OpenOrDie(BenchOptions(kPoolPages, 512u << 10));

    oids_.assign(kObjects, asset::kNullObjectId);
    versions_.assign(kObjects, 0);
    for (uint64_t base = 0; base < kObjects; base += 2048) {
      auto txn = db_->Begin();
      if (!txn.ok()) Die("preload Begin", txn.status());
      for (uint64_t i = base; i < std::min(base + 2048, kObjects); ++i) {
        auto oid = txn->CreateObject(MakeValue(i, 0, kValueSize));
        if (!oid.ok()) Die("preload Create", oid.status());
        oids_[i] = *oid;
      }
      if (auto s = txn->Commit(); !s.ok()) Die("preload Commit", s);
    }

    asset::server::Server::Options so;
    so.host = "127.0.0.1";
    so.port = 0;
    so.workers = 2;
    so.max_connections = 64;
    so.max_txns_per_conn = 4;
    so.max_frame_bytes = 1 << 20;
    so.write_buffer_limit = 4u << 20;
    so.idle_timeout = std::chrono::milliseconds(0);
    so.admission_max_open_txns = 0;
    so.admission_max_lag = std::chrono::milliseconds(0);
    so.overload_retry_hint = std::chrono::milliseconds(20);
    so.drain_timeout = std::chrono::milliseconds(1000);
    so.slow_request_threshold = std::chrono::milliseconds(0);
    so.slow_log_slots = 128;
    so.listen_backlog = 1024;
    auto server = asset::server::Server::Start(db_.get(), so);
    if (!server.ok()) Die("Server::Start", server.status());
    server_ = std::move(*server);

    asset::client::Client::Options co;
    co.max_frame_bytes = 1 << 20;
    co.skip_handshake = false;
    co.connect_timeout = std::chrono::milliseconds(5000);
    co.io_timeout = std::chrono::milliseconds(5000);
    co.max_retries = 3;
    co.backoff_base = std::chrono::milliseconds(10);
    co.backoff_max = std::chrono::milliseconds(500);
    co.default_deadline_ms = 0;
    co.auto_reconnect = false;  // a lost session must surface as a failure
    co.trace_recorder = nullptr;
    for (int w = 0; w < workers_; ++w) {
      auto c = asset::client::Client::Connect("127.0.0.1", server_->port(), co);
      if (!c.ok()) Die("Client::Connect", c.status());
      clients_.push_back(std::move(*c));
    }
  }

  void Teardown() override {
    clients_.clear();
    if (server_) server_->Shutdown();
    server_.reset();
    db_.reset();
  }

  TxnOutcome RunTxn(int worker, std::mt19937_64& rng) override {
    TxnSpan root;
    asset::client::Client& c = *clients_[static_cast<size_t>(worker)];
    const bool write = rng() % (kReadOnlyPerWrite + 1) == 0;
    uint64_t keys[kReadsPerReadTxn];
    int reads = 0;
    {
      ScopedSpan span("client.send");
      c.Send(Command::Begin());
      if (write) {
        // Each worker writes only its own keys, so versions_[k] is the
        // exact committed state of key k.
        const uint64_t slots = kObjects / static_cast<uint64_t>(workers_);
        keys[0] = (rng() % slots) * static_cast<uint64_t>(workers_) +
                  static_cast<uint64_t>(worker);
        reads = 1;
        c.Send(Command::Get(oids_[keys[0]]));
        c.Send(Command::Put(oids_[keys[0]],
                            MakeValue(keys[0], versions_[keys[0]] + 1,
                                      kValueSize)));
      } else {
        reads = kReadsPerReadTxn;
        for (int i = 0; i < reads; ++i) {
          keys[i] = rng() % kObjects;
          c.Send(Command::Get(oids_[keys[i]]));
        }
      }
      c.Send(Command::Commit());
    }
    const size_t sent = c.staged();
    asset::Status flushed;
    {
      ScopedSpan span("client.flush");
      flushed = c.Flush();
    }
    if (!flushed.ok()) return Fail("Flush", flushed);
    std::vector<asset::Result<Reply>> replies;
    replies.reserve(sent);
    {
      ScopedSpan span("client.reply_wait");
      for (size_t i = 0; i < sent; ++i) replies.push_back(c.Receive());
    }
    ScopedSpan span("bench.check");
    for (const auto& r : replies) {
      if (!r.ok()) return Fail("Receive", r.status());
      if (!r->ok()) return Fail("reply", r->ToStatus());
    }
    for (int i = 0; i < reads; ++i) {
      uint64_t version = 0;
      if (!ParseValue(replies[1 + static_cast<size_t>(i)]->bytes, keys[i],
                      kValueSize, &version) ||
          (write && version != versions_[keys[0]])) {
        return Fail("read value", asset::Status::Corruption("mismatch"));
      }
    }
    if (write) versions_[keys[0]]++;
    return TxnOutcome{};
  }

  asset::Database& database() override { return *db_; }

  void ReadCounters(Counters* out) override {
    ReadDatabaseCounters(*db_, out);
    const asset::server::ServerStats& s = server_->stats();
    (*out)["srv.bytes"] = static_cast<double>(s.bytes_in.load() +
                                              s.bytes_out.load());
    (*out)["srv.frames"] = static_cast<double>(s.frames_in.load() +
                                               s.frames_out.load());
    (*out)["srv.backpressure_pauses"] =
        static_cast<double>(s.backpressure_pauses.load());
    // Stage means come from the asset_server_stage_ns summaries, summed
    // over command types.
    std::istringstream metrics(server_->MetricsText());
    std::string line;
    for (const char* stage : {"queue", "execute", "flush"}) {
      (*out)[std::string("srv.") + stage + ".sum"] = 0;
      (*out)[std::string("srv.") + stage + ".count"] = 0;
    }
    while (std::getline(metrics, line)) {
      const bool sum = line.rfind("asset_server_stage_ns_sum{", 0) == 0;
      const bool count = line.rfind("asset_server_stage_ns_count{", 0) == 0;
      if (!sum && !count) continue;
      const size_t at = line.find("stage=\"");
      const size_t end = line.find('"', at + 7);
      const size_t space = line.rfind(' ');
      if (at == std::string::npos || end == std::string::npos) continue;
      const std::string key = "srv." + line.substr(at + 7, end - at - 7) +
                              (sum ? ".sum" : ".count");
      (*out)[key] += std::strtod(line.c_str() + space + 1, nullptr);
    }
    double retries = 0;
    for (const auto& c : clients_) {
      retries += static_cast<double>(c->stats().retries);
    }
    (*out)["cli.retries"] = retries;
  }

  std::string Verify(std::map<std::string, double>* metrics) override {
    (*metrics)["api.codec_ns_per_txn"] = CodecNsPerTxn();
    for (uint64_t base = 0; base < kObjects; base += 2048) {
      auto txn = db_->Begin();
      if (!txn.ok()) return "verify Begin: " + txn.status().ToString();
      for (uint64_t i = base; i < std::min(base + 2048, kObjects); ++i) {
        auto bytes = txn->Read(oids_[i]);
        uint64_t version = 0;
        if (!bytes.ok() ||
            !ParseValue(*bytes, i, kValueSize, &version) ||
            version != versions_[i]) {
          return "object " + std::to_string(i) +
                 " does not match its shadow copy";
        }
      }
      txn->Commit();
    }
    return "";
  }

  double open_rate() const override { return 5000; }

 private:
  /// The api codec's cost for this mix: encode and decode every command
  /// and reply of a sample of transactions, in ns per txn.
  double CodecNsPerTxn() const {
    std::mt19937_64 rng(seed_ ^ 0xC0DEC);
    constexpr int kTxns = 20000;
    std::vector<uint8_t> buf;
    uint64_t sink = 0;
    const int64_t start = NowNs();
    for (int t = 0; t < kTxns; ++t) {
      const bool write = rng() % (kReadOnlyPerWrite + 1) == 0;
      std::vector<Command> cmds{Command::Begin()};
      std::vector<Reply> replies{Reply::OkTid(1)};
      const int reads = write ? 1 : kReadsPerReadTxn;
      for (int i = 0; i < reads; ++i) {
        const uint64_t k = rng() % kObjects;
        cmds.push_back(Command::Get(oids_[k]));
        replies.push_back(Reply::OkBytes(MakeValue(k, 1, kValueSize)));
      }
      if (write) {
        cmds.push_back(Command::Put(oids_[0], MakeValue(0, 1, kValueSize)));
        replies.push_back(Reply::Ok());
      }
      cmds.push_back(Command::Commit());
      replies.push_back(Reply::Ok());
      for (const Command& cmd : cmds) {
        buf.clear();
        asset::api::EncodeCommand(cmd, &buf);
        sink += asset::api::DecodeCommand(buf).ok();
      }
      for (const Reply& reply : replies) {
        buf.clear();
        asset::api::EncodeReply(reply, &buf);
        sink += asset::api::DecodeReply(buf).ok();
      }
    }
    const int64_t elapsed = NowNs() - start;
    if (sink == 0) std::fprintf(stderr, "perfbench: codec sample failed\n");
    return static_cast<double>(elapsed) / kTxns;
  }

  [[noreturn]] static void Die(const char* what, const asset::Status& s) {
    std::fprintf(stderr, "perfbench: wire_kv %s: %s\n", what,
                 s.ToString().c_str());
    std::exit(1);
  }

  static TxnOutcome Fail(const char* what, const asset::Status& s) {
    std::fprintf(stderr, "perfbench: wire_kv %s: %s\n", what,
                 s.ToString().c_str());
    return TxnOutcome{1, false};
  }

  const int workers_;
  const uint64_t seed_;
  std::unique_ptr<asset::Database> db_;
  std::unique_ptr<asset::server::Server> server_;
  std::vector<std::unique_ptr<asset::client::Client>> clients_;
  std::vector<asset::ObjectId> oids_;
  /// Committed version of each object; entry k is touched only by worker
  /// k % workers while a phase runs.
  std::vector<uint64_t> versions_;
};

}  // namespace

std::unique_ptr<Workload> MakeWireKv(int workers, uint64_t seed) {
  return std::make_unique<WireKv>(workers, seed);
}

}  // namespace perfbench
