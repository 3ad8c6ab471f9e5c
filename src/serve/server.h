// hoihod's network front end: N non-blocking epoll event loops over the
// line-oriented lookup protocol (serve/protocol.h).
//
// Threading model — `workers` event loops, each answering its own connections:
//
//   loop 0 (run()'s thread)          loops 1..N-1 (one thread each)
//   ───────────────────────          ──────────────────────────────
//   accept connection k ──────────>  inbox + eventfd (k mod N != 0)
//   (keeps k mod N == 0 itself)      register the connection
//   read bytes, split lines          read bytes, split lines
//   per batch: one ModelStore        per batch: one ModelStore
//     snapshot, answer inline          snapshot, answer inline
//   write / backpressure             write / backpressure
//   tick: on_tick, stall scan
//
// Connection k always lands on loop k mod N, so consecutive connections sit
// on different loops. A connection never leaves its loop, and its batches
// are answered in the order they were read, so pipelined clients get
// responses in request order. Admin verbs (STATS/RELOAD/DELTA) are answered
// in line with the lookups around them, which makes a RELOAD mid-pipeline
// ordered and lossless: requests before it are answered by the old
// snapshot, requests after it by the new one, and nothing is dropped.
//
// The Server owns no model: it borrows a ModelStore (hot-reloadable, see
// serve/model_store.h) and a Metrics block that STATS reports from.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fuse/audit.h"
#include "serve/metrics.h"
#include "serve/model_store.h"
#include "util/net.h"

namespace hoiho::serve {

struct ServerConfig {
  std::uint16_t port = 0;   // 0 = ephemeral; read back with Server::port()
  bool bind_any = false;    // false = loopback only (the safe default)
  std::size_t workers = 0;  // event loops; 0 = hardware concurrency

  std::size_t max_batch = 256;   // request lines answered per model snapshot
  std::size_t max_line = 1024;   // a longer line is a protocol violation
  std::size_t max_output_buffer = 1 << 20;  // pause reading a conn above this

  // Fault tolerance (DESIGN.md §9). All default off so tests and embedders
  // opt in explicitly. max_inflight counts the lines admitted and not yet
  // answered across all loops; while that count is at the cap, a batch
  // answers ERR,busy. A batch whose answering starts later than
  // request_deadline_ms after its read answers ERR,deadline.
  int request_deadline_ms = 0;   // >0: answer late batches ERR,deadline
  int idle_timeout_ms = 0;       // >0: reap connections idle this long
  std::size_t max_inflight = 0;  // >0: shed batches with ERR,busy at this cap
  int drain_timeout_ms = 5000;   // drain() waits at most this for in-flight work

  // GEO verb tuning: fusion weights/slack plus the agree radius a claimed
  // coordinate is audited against. The measurement context itself rides in
  // the ModelSnapshot (ModelStore::set_fuse_context).
  fuse::AuditConfig audit;

  // If > 0, on_tick runs every tick_ms on loop 0's thread (used by the
  // daemon for SIGHUP polling and model-file mtime watching).
  int tick_ms = 0;
  std::function<void()> on_tick;

  // Watchdog (0 = off): a batch that runs longer than this is counted once
  // in serve_worker_stalled — by loop 0's tick scan while it still runs
  // (tick_ms > 0), or by its own loop when it finishes.
  int worker_stall_ms = 0;

  // Metrics registry the server's counters land in. Null (default) gives
  // the Server a private registry; pass a shared one to merge the serve_*
  // metrics into a process-wide snapshot (must outlive the Server).
  obs::Registry* registry = nullptr;
};

class Server {
 public:
  Server(ModelStore& store, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds + listens and builds the event loops; false (with *error) on
  // failure. Must succeed before run().
  bool start(std::string* error = nullptr);

  // The bound port (valid after start(); useful with port = 0).
  std::uint16_t port() const { return port_; }

  // Runs loop 0 on the calling thread and the other loops on threads of
  // their own, until stop() or a finished drain(). Blocking; call from a
  // dedicated thread if the caller needs to keep working.
  void run();

  // Requests loop exit. Safe from any thread and from signal context is
  // NOT guaranteed — signal handlers should set a flag an on_tick checks,
  // or write to their own descriptor.
  void stop();

  // Graceful drain (what SIGTERM should do): stop accepting, let batches
  // being answered finish and flush, close connections as they go idle,
  // then exit run(). Bounded by config.drain_timeout_ms — a client that
  // never stops pipelining cannot wedge shutdown. Safe from any thread
  // (same caveat as stop() for signal context).
  void drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  Metrics& metrics() { return metrics_; }
  const ModelStore& store() const { return store_; }

 private:
  class Loop;  // one epoll loop and the connections it owns (server.cc)

  // Answers one batch of request lines into `out`, one response line each
  // (a GEOB group answers its header line plus one line per subject).
  void answer(std::span<const std::string_view> lines, std::string& out);

  ModelStore& store_;
  ServerConfig config_;
  Metrics metrics_;  // constructed over config_.registry (or a private one)

  // GEO verb instrumentation, registered once at construction so loops
  // never take the registry mutex per request. The STATS v1 surface is
  // frozen; these land in STATS2/METRICS only.
  fuse::FuseMetrics fuse_metrics_;
  obs::Counter audit_agree_, audit_refute_, audit_unknown_;

  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;  // fixed after start()

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> open_connections_{0};  // accepted and not yet closed
  std::atomic<std::size_t> inflight_lines_{0};    // admitted, not yet answered (max_inflight > 0)
};

}  // namespace hoiho::serve
