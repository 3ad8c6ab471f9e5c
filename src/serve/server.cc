#include "serve/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "serve/protocol.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace hoiho::serve {

namespace {

constexpr std::uint64_t kListenToken = 0;
constexpr std::uint64_t kWakeToken = 1;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t now_ms() { return now_ns() / 1000000u; }

bool epoll_add(int epfd, int fd, std::uint64_t token, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = token;
  return ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

// Counts stall episode `seq` at most once: loop 0's scan and the stalled
// loop itself can both see one slow batch, and only the first claim wins.
bool claim_stall(std::atomic<std::uint64_t>& reported, std::uint64_t seq) {
  std::uint64_t prev = reported.load(std::memory_order_relaxed);
  while (prev < seq)
    if (reported.compare_exchange_weak(prev, seq, std::memory_order_relaxed)) return true;
  return false;
}

void append_errors(std::string& out, std::size_t n, std::string_view reason) {
  const std::string line = format_error(reason) + "\n";
  out.reserve(out.size() + n * line.size());
  for (std::size_t i = 0; i < n; ++i) out += line;
}

}  // namespace

// One epoll loop: the connections it owns, answered inline on its thread.
// Loop 0 also owns the listen socket and the tick.
class Server::Loop {
 public:
  Loop(Server& server, std::size_t index) : server_(server), index_(index) {}

  // Creates the epoll set and wake eventfd; loop 0 also takes `listen_fd`.
  bool open(util::Fd listen_fd, std::string* error);
  void run();
  void wake();
  // Any thread: queue an accepted connection for this loop to register.
  void hand_off(util::Fd fd);
  // Loop 0's watchdog view of this loop: true when the batch it is
  // answering has run past `threshold_ns` and nobody has counted it yet.
  bool stalled(std::uint64_t threshold_ns);

 private:
  struct Connection {
    std::uint64_t id = 0;  // epoll token within this loop
    util::Fd fd;
    std::string in_buf;
    std::string out_buf;
    std::size_t out_off = 0;  // bytes of out_buf already sent
    bool peer_closed = false;
    bool want_write = false;
    bool reads_paused = false;
    std::uint64_t last_activity_ms = 0;  // steady ms of last byte in/out

    bool idle() const { return out_off == out_buf.size(); }
  };

  void accept_ready();
  void adopt(util::Fd fd);
  void adopt_inbox();
  void on_readable(Connection& c);
  void answer_batch(Connection& c, std::span<const std::string_view> lines,
                    std::uint64_t read_ns);
  void sweep_idle();  // close connections idle past idle_timeout_ms
  void drain_step();  // progress graceful drain; loop 0 ends it for all loops
  int timeout_ms(bool ticks, std::chrono::steady_clock::time_point next_tick) const;
  bool flush(Connection& c);  // false: the connection was closed
  void update_epoll(Connection& c);
  void close_connection(Connection& c);

  Server& server_;
  const std::size_t index_;
  util::Fd epoll_fd_;
  util::Fd wake_fd_;    // eventfd: hand-offs, stop() and drain()
  util::Fd listen_fd_;  // loop 0 only
  std::uint64_t accepted_ = 0;  // loop 0 only: connection k goes to loop k mod N

  std::mutex inbox_mu_;
  std::vector<util::Fd> inbox_;  // accepted by loop 0, not yet registered here

  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_id_ = 2;  // 0 = listen token, 1 = wake token
  std::vector<std::string_view> lines_;  // complete lines of one read (views into in_buf)
  std::vector<std::size_t> batch_ends_;  // batch boundaries in lines_

  util::Heartbeat heartbeat_;  // stamped once per batch
  std::atomic<std::uint64_t> stall_reported_{0};  // last batch seq counted as stalled

  // Loop 0 only, set when it starts draining.
  std::optional<std::chrono::steady_clock::time_point> drain_deadline_;
};

Server::Server(ModelStore& store, ServerConfig config)
    : store_(store),
      config_(std::move(config)),
      metrics_(config_.registry),
      fuse_metrics_(metrics_.registry()),
      audit_agree_(metrics_.registry().counter("audit_agree")),
      audit_refute_(metrics_.registry().counter("audit_refute")),
      audit_unknown_(metrics_.registry().counter("audit_unknown")) {
  // The store's canary/rollback counters land in this server's registry.
  store_.set_metrics(&metrics_);
}

Server::~Server() = default;

bool Server::start(std::string* error) {
  util::Fd listen_fd = util::listen_tcp(config_.port, error, config_.bind_any);
  if (!listen_fd) return false;
  if (!util::set_nonblocking(listen_fd.get())) {
    if (error != nullptr) *error = "cannot set listen socket non-blocking";
    return false;
  }
  const auto bound = util::local_port(listen_fd.get());
  if (!bound) {
    if (error != nullptr) *error = "getsockname failed";
    return false;
  }
  port_ = *bound;
  const std::size_t n = util::resolve_threads(config_.workers);
  for (std::size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<Loop>(*this, i));
    if (!loops_.back()->open(i == 0 ? std::move(listen_fd) : util::Fd(), error)) return false;
  }
  return true;
}

void Server::run() {
  if (loops_.empty()) return;
  std::vector<std::jthread> others;
  for (std::size_t i = 1; i < loops_.size(); ++i)
    others.emplace_back([loop = loops_[i].get()] { loop->run(); });
  loops_[0]->run();
  // Whatever ended loop 0 — stop(), a finished drain, an epoll failure —
  // ends the other loops too.
  stop();
}

void Server::stop() {
  stopping_.store(true, std::memory_order_release);
  for (const auto& loop : loops_) loop->wake();
}

void Server::drain() {
  draining_.store(true, std::memory_order_release);
  for (const auto& loop : loops_) loop->wake();
}

bool Server::Loop::open(util::Fd listen_fd, std::string* error) {
  epoll_fd_.reset(::epoll_create1(EPOLL_CLOEXEC));
  wake_fd_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!epoll_fd_ || !wake_fd_) {
    if (error != nullptr) *error = std::string("epoll/eventfd: ") + std::strerror(errno);
    return false;
  }
  if (!epoll_add(epoll_fd_.get(), wake_fd_.get(), kWakeToken, EPOLLIN) ||
      (listen_fd && !epoll_add(epoll_fd_.get(), listen_fd.get(), kListenToken, EPOLLIN))) {
    if (error != nullptr) *error = std::string("epoll_ctl: ") + std::strerror(errno);
    return false;
  }
  listen_fd_ = std::move(listen_fd);
  return true;
}

void Server::Loop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
}

void Server::Loop::hand_off(util::Fd fd) {
  {
    const std::lock_guard lock(inbox_mu_);
    inbox_.push_back(std::move(fd));
  }
  wake();
}

bool Server::Loop::stalled(std::uint64_t threshold_ns) {
  // Reading the seq on both sides of the start stamp pairs them: a batch
  // that began in between would otherwise lend its seq to an older start.
  const std::uint64_t seq = heartbeat_.task_seq.load(std::memory_order_acquire);
  const std::uint64_t busy = heartbeat_.busy_since_ns.load(std::memory_order_acquire);
  if (busy == 0 || heartbeat_.task_seq.load(std::memory_order_acquire) != seq) return false;
  const std::uint64_t now = now_ns();
  return now > busy && now - busy >= threshold_ns && claim_stall(stall_reported_, seq);
}

int Server::Loop::timeout_ms(bool ticks, std::chrono::steady_clock::time_point next_tick) const {
  using std::chrono::duration_cast;
  using std::chrono::milliseconds;
  long long timeout = -1;
  const auto clamp = [&timeout](long long ms) {
    ms = std::max<long long>(0, ms);
    if (timeout < 0 || ms < timeout) timeout = ms;
  };
  const auto now = std::chrono::steady_clock::now();
  if (ticks) clamp(duration_cast<milliseconds>(next_tick - now).count());
  if (server_.config_.idle_timeout_ms > 0 && !conns_.empty())
    // Sweep at half the timeout so a connection is reaped at most 1.5x late.
    clamp(std::max(server_.config_.idle_timeout_ms / 2, 10));
  if (drain_deadline_) clamp(duration_cast<milliseconds>(*drain_deadline_ - now).count());
  return static_cast<int>(std::min<long long>(timeout, 1 << 30));
}

void Server::Loop::run() {
  using Clock = std::chrono::steady_clock;
  const ServerConfig& config = server_.config_;
  const bool ticks = index_ == 0 && config.tick_ms > 0;
  auto next_tick = Clock::now() + std::chrono::milliseconds(ticks ? config.tick_ms : 0);
  epoll_event events[64];
  while (!server_.stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, 64, timeout_ms(ticks, next_tick));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ticks && Clock::now() >= next_tick) {
      next_tick = Clock::now() + std::chrono::milliseconds(config.tick_ms);
      // Watchdog: a loop wedged on one batch (slow model, livelocked
      // lookup) is surfaced as a counter instead of silently eating a core.
      // Loops count their own slow batches as they finish; this scan sees
      // the ones still running.
      if (config.worker_stall_ms > 0) {
        const auto threshold_ns = static_cast<std::uint64_t>(config.worker_stall_ms) * 1000000u;
        for (std::size_t k = 1; k < server_.loops_.size(); ++k)
          if (server_.loops_[k]->stalled(threshold_ns)) server_.metrics_.worker_stalled.inc();
      }
      if (config.on_tick) config.on_tick();
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t token = events[i].data.u64;
      if (token == kWakeToken) {
        std::uint64_t count = 0;
        [[maybe_unused]] const ssize_t r = ::read(wake_fd_.get(), &count, sizeof(count));
        adopt_inbox();
      } else if (token == kListenToken) {
        accept_ready();
      } else {
        const auto it = conns_.find(token);
        if (it == conns_.end()) continue;  // closed earlier this wakeup
        Connection& c = *it->second;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
            (events[i].events & EPOLLIN) == 0) {
          close_connection(c);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0 && !flush(c)) continue;
        if ((events[i].events & EPOLLIN) != 0) on_readable(c);
      }
    }
    if (config.idle_timeout_ms > 0) sweep_idle();
    if (server_.draining_.load(std::memory_order_acquire)) drain_step();
  }
}

void Server::Loop::sweep_idle() {
  const std::uint64_t now = now_ms();
  const auto limit = static_cast<std::uint64_t>(server_.config_.idle_timeout_ms);
  std::vector<std::uint64_t> reap;
  for (const auto& [id, conn] : conns_) {
    if (conn->idle() && now - conn->last_activity_ms > limit) reap.push_back(id);
  }
  for (const std::uint64_t id : reap) {
    server_.metrics_.idle_closed.inc();
    close_connection(*conns_.at(id));
  }
}

void Server::Loop::drain_step() {
  Server& s = server_;
  if (index_ == 0 && !drain_deadline_) {
    drain_deadline_ = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(std::max(s.config_.drain_timeout_ms, 0));
    // Stop accepting; connections already established keep being served.
    // Closing the listen socket (not just deregistering it) makes new
    // connects fail outright instead of parking in the kernel backlog.
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listen_fd_.get(), nullptr);
    listen_fd_.reset();
  }
  // Close connections as they go quiet. A connection with unflushed output
  // is left alone — its answers land first.
  std::vector<std::uint64_t> quiet;
  for (const auto& [id, conn] : conns_) {
    if (conn->idle()) quiet.push_back(id);
  }
  for (const std::uint64_t id : quiet) close_connection(*conns_.at(id));
  // Loop 0 ends the drain for every loop once no connection is left on any
  // of them — one still in a loop's inbox counts — or at the deadline.
  if (index_ == 0 && (s.open_connections_.load(std::memory_order_acquire) == 0 ||
                      std::chrono::steady_clock::now() >= *drain_deadline_))
    s.stop();
}

void Server::Loop::accept_ready() {
  Metrics& metrics = server_.metrics_;
  for (;;) {
    if (util::failpoint::any_active()) {
      const auto f = util::failpoint::hit("serve.accept");
      if (f.kind != util::failpoint::Kind::kOff) metrics.injected_faults.inc();
      if (f.kind == util::failpoint::Kind::kError)
        return;  // simulated EMFILE/ENFILE: listen socket stays armed
    }
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listen socket stays armed
    }
    util::set_tcp_nodelay(fd);
    server_.open_connections_.fetch_add(1, std::memory_order_acq_rel);
    Loop& owner = *server_.loops_[accepted_++ % server_.loops_.size()];
    if (&owner == this) {
      adopt(util::Fd(fd));
    } else {
      owner.hand_off(util::Fd(fd));
    }
  }
}

void Server::Loop::adopt(util::Fd fd) {
  auto conn = std::make_unique<Connection>();
  conn->id = next_id_++;
  conn->last_activity_ms = now_ms();
  if (!epoll_add(epoll_fd_.get(), fd.get(), conn->id, EPOLLIN)) {
    server_.open_connections_.fetch_sub(1, std::memory_order_acq_rel);
    return;  // fd closes here
  }
  conn->fd = std::move(fd);
  server_.metrics_.connections_opened.inc();
  conns_.emplace(conn->id, std::move(conn));
}

void Server::Loop::adopt_inbox() {
  std::vector<util::Fd> fds;
  {
    const std::lock_guard lock(inbox_mu_);
    fds.swap(inbox_);
  }
  for (util::Fd& fd : fds) adopt(std::move(fd));
}

void Server::Loop::on_readable(Connection& c) {
  const ServerConfig& config = server_.config_;
  Metrics& metrics = server_.metrics_;
  const std::uint64_t t0 = now_ns();
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(c.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      c.in_buf.append(buf, static_cast<std::size_t>(n));
      c.last_activity_ms = now_ms();
      // A short read drained the socket; the fd is level-triggered, so
      // later bytes wake the loop again without a recv that hits EAGAIN.
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      if (c.in_buf.size() >= config.max_line) break;  // parse before reading on
    } else if (n == 0) {
      // EOF: deregister EPOLLIN immediately — a level-triggered fd at EOF
      // stays readable forever and would spin the loop.
      c.peer_closed = true;
      update_epoll(c);
      break;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      close_connection(c);
      return;
    }
  }

  // Split the complete lines and cut them into batches of max_batch.
  lines_.clear();
  batch_ends_.clear();
  std::size_t start = 0;
  std::size_t batch_start = 0;
  bool oversized = false;
  for (;;) {
    const std::size_t pos = c.in_buf.find('\n', start);
    if (pos == std::string::npos) break;
    if (pos - start > config.max_line) {
      oversized = true;
      break;
    }
    const std::string_view line(c.in_buf.data() + start, pos - start);
    if (const auto count = parse_geob_count(line)) {
      // GEOB group framing: the header and its `count` subject lines enter
      // one batch together or not at all. An incomplete group stays in
      // in_buf (start is not advanced) until the subjects arrive; the
      // group may push the batch past max_batch — it is never split. A
      // *malformed* header takes the ordinary path below and is answered
      // ERR without consuming any subject lines.
      const std::size_t group_begin = lines_.size();
      lines_.push_back(line);
      std::size_t scan = pos + 1;
      while (lines_.size() - group_begin <= *count) {
        const std::size_t eol = c.in_buf.find('\n', scan);
        if (eol == std::string::npos) break;
        if (eol - scan > config.max_line) {
          oversized = true;
          break;
        }
        lines_.emplace_back(c.in_buf.data() + scan, eol - scan);
        scan = eol + 1;
      }
      if (lines_.size() - group_begin <= *count) {
        lines_.resize(group_begin);  // incomplete: wait for the rest
        break;
      }
      start = scan;
    } else {
      lines_.push_back(line);
      start = pos + 1;
    }
    if (lines_.size() - batch_start >= config.max_batch) {
      batch_ends_.push_back(lines_.size());
      batch_start = lines_.size();
    }
  }
  if (lines_.size() > batch_start) batch_ends_.push_back(lines_.size());
  // A retained incomplete GEOB group keeps complete (bounded) lines in
  // in_buf, so the oversize check applies to the trailing partial line only.
  const std::size_t last_nl = c.in_buf.rfind('\n');
  const std::size_t partial = last_nl == std::string::npos || last_nl < start
                                  ? c.in_buf.size() - start
                                  : c.in_buf.size() - last_nl - 1;
  metrics.parse_ns.add(now_ns() - t0);

  std::size_t begin = 0;
  for (const std::size_t end : batch_ends_) {
    answer_batch(c, std::span(lines_).subspan(begin, end - begin), t0);
    begin = end;
  }
  c.in_buf.erase(0, start);
  if (oversized || partial >= config.max_line) {
    // A line over the cap — terminated or still streaming in — is a
    // protocol violation. Answer it after the lines before it, then drop
    // the connection once everything is flushed.
    metrics.errors.inc();
    c.out_buf += format_error("oversized line") + "\n";
    c.in_buf.clear();
    c.peer_closed = true;
    update_epoll(c);
  }
  flush(c);
}

void Server::Loop::answer_batch(Connection& c, std::span<const std::string_view> lines,
                                std::uint64_t read_ns) {
  const ServerConfig& config = server_.config_;
  Metrics& metrics = server_.metrics_;
  std::atomic<std::size_t>& inflight = server_.inflight_lines_;
  const std::size_t n = lines.size();
  if (config.max_inflight > 0 &&
      inflight.fetch_add(n, std::memory_order_acq_rel) >= config.max_inflight) {
    // Shed at admission: while the lines admitted across all loops are at
    // the cap, answer ERR,busy without touching the model, so an overloaded
    // server degrades to fast rejections instead of unbounded work.
    inflight.fetch_sub(n, std::memory_order_acq_rel);
    metrics.shed_busy.add(n);
    append_errors(c.out_buf, n, "busy");
    return;
  }
  metrics.batches.inc();
  metrics.batched_lines.add(n);
  const std::uint64_t seq = heartbeat_.task_seq.fetch_add(1, std::memory_order_acq_rel) + 1;
  const std::uint64_t begin = now_ns();
  heartbeat_.busy_since_ns.store(begin, std::memory_order_release);
  if (util::failpoint::any_active()) {
    // Artificial lookup latency ("serve.process=delay:50"): the lever chaos
    // tests use to force deadline expiry, shedding and stalls on demand.
    const auto f = util::failpoint::hit("serve.process");
    if (f.kind != util::failpoint::Kind::kOff) metrics.injected_faults.inc();
  }
  const std::uint64_t t0 = now_ns();
  if (config.request_deadline_ms > 0 &&
      t0 - read_ns > static_cast<std::uint64_t>(config.request_deadline_ms) * 1000000u) {
    // Answered too long after its read: the client has likely timed out,
    // so answer cheaply rather than burn lookup time on dead requests.
    metrics.deadline_expired.add(n);
    append_errors(c.out_buf, n, "deadline");
  } else {
    server_.answer(lines, c.out_buf);
    const std::uint64_t batch_ns = now_ns() - t0;
    metrics.lookup_ns.add(batch_ns);
    metrics.batch_ns.observe(static_cast<double>(batch_ns));
  }
  const std::uint64_t end = now_ns();
  heartbeat_.busy_since_ns.store(0, std::memory_order_release);
  if (config.worker_stall_ms > 0 &&
      end - begin >= static_cast<std::uint64_t>(config.worker_stall_ms) * 1000000u &&
      claim_stall(stall_reported_, seq))
    metrics.worker_stalled.inc();
  if (config.max_inflight > 0) inflight.fetch_sub(n, std::memory_order_acq_rel);
}

void Server::answer(std::span<const std::string_view> lines, std::string& out) {
  // One snapshot per batch: lookups within a batch see one model generation
  // even if a reload lands mid-batch.
  std::shared_ptr<const ModelSnapshot> snap = store_.current();
  out.reserve(out.size() + lines.size() * 24);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Request req = parse_request(lines[i]);
    if (!req.error.empty()) {
      // Shared named-error emission: the verb table (protocol.cc) did the
      // arity/argument checking; every malformed verb answers here so the
      // handlers below only ever see well-formed requests.
      if (req.kind == RequestKind::kGeo || req.kind == RequestKind::kGeoBatch) {
        metrics_.requests.inc();
      } else {
        metrics_.admin.inc();
      }
      metrics_.errors.inc();
      out += format_error(req.error);
      out += '\n';
      continue;
    }
    switch (req.kind) {
      case RequestKind::kLookup: {
        metrics_.requests.inc();
        const auto loc = snap->geolocator.locate(req.hostname);
        if (loc) {
          metrics_.hits.inc();
          out += format_hit(*loc);
        } else {
          metrics_.misses.inc();
          out += format_miss();
        }
        break;
      }
      case RequestKind::kGeo: {
        metrics_.requests.inc();
        std::optional<geo::Coordinate> claimed;
        if (req.has_claimed) claimed = req.claimed;
        // Cheap per-batch facade over the pinned snapshot: the Fuser itself
        // holds only references + config, so constructing one here keeps
        // every GEO line in this batch on one (model, context) generation.
        const fuse::Fuser fuser(snap->geolocator, snap->fuse.get(),
                                config_.audit.fuse, fuse_metrics_);
        const fuse::FuseResult fused = fuser.fuse(req.subject, claimed);
        std::optional<fuse::AuditOutcome> audit;
        if (req.has_claimed) {
          audit = fuse::classify_claim(fused, req.claimed, config_.audit.agree_km);
          switch (*audit) {
            case fuse::AuditOutcome::kAgree: audit_agree_.inc(); break;
            case fuse::AuditOutcome::kRefute: audit_refute_.inc(); break;
            case fuse::AuditOutcome::kUnknown: audit_unknown_.inc(); break;
          }
        }
        if (fused.answered()) {
          metrics_.hits.inc();
        } else {
          metrics_.misses.inc();
        }
        out += format_geo(fused, audit);
        break;
      }
      case RequestKind::kGeoBatch: {
        // The framing in on_readable guarantees the subject lines follow
        // the header inside this batch; a short group can only mean a bug,
        // answered as a named error rather than misreading subjects.
        const std::size_t n = req.geob_count;
        if (lines.size() - i - 1 < n) {
          metrics_.requests.inc();
          metrics_.errors.inc();
          out += format_error("geob_truncated");
          break;
        }
        metrics_.geob_batches.inc();
        metrics_.geob_subjects.add(n);
        out += format_geob_header(n);
        out += '\n';
        // One Fuser — one snapshot, one RTT-filter context — for the whole
        // block: the batch verb's point is amortizing this over n subjects.
        const fuse::Fuser fuser(snap->geolocator, snap->fuse.get(),
                                config_.audit.fuse, fuse_metrics_);
        for (std::size_t k = 0; k < n; ++k) {
          std::string_view subject = lines[++i];
          if (!subject.empty() && subject.back() == '\r') subject.remove_suffix(1);
          metrics_.requests.inc();
          const fuse::FuseResult fused = fuser.fuse(subject, std::nullopt);
          if (fused.answered()) {
            metrics_.hits.inc();
          } else {
            metrics_.misses.inc();
          }
          out += format_geo(fused);
          if (k + 1 < n) out += '\n';  // the shared tail adds the last one
        }
        break;
      }
      case RequestKind::kDelta: {
        metrics_.admin.inc();
        ModelStore::DeltaApply applied;
        if (const auto err = store_.apply_delta_file(std::string(req.path), &applied)) {
          out += format_delta_error(*err);
        } else {
          out += format_delta_ok(applied.new_generation, applied.base_generation,
                                 applied.upserts, applied.removes, applied.conventions);
          snap = store_.current();  // later lines in this batch see the new model
        }
        break;
      }
      case RequestKind::kStats:
        metrics_.admin.inc();
        out += format_stats(metrics_.snapshot(), snap->generation,
                            snap->convention_count, snap->program_count);
        break;
      case RequestKind::kStats2:
        metrics_.admin.inc();
        out += format_stats_v2(metrics_.registry().snapshot(), snap->generation,
                               snap->convention_count, snap->program_count);
        break;
      case RequestKind::kMetrics:
        metrics_.admin.inc();
        out += format_metrics_text(metrics_.registry().snapshot(), snap->generation,
                                   snap->convention_count, snap->program_count);
        break;
      case RequestKind::kReload: {
        metrics_.admin.inc();
        const auto err = store_.reload();
        if (err) {
          metrics_.reload_failures.inc();
          out += format_reload_error(*err);
        } else {
          metrics_.reloads.inc();
          const auto fresh = store_.current();
          out += format_reload_ok(fresh->generation, fresh->convention_count);
          snap = fresh;  // later lines in this batch see the new model
        }
        break;
      }
      case RequestKind::kGens:
        metrics_.admin.inc();
        out += format_gens(store_.generation(), store_.list_generations());
        break;
      case RequestKind::kRollback: {
        metrics_.admin.inc();
        std::uint64_t published = 0;
        const std::uint64_t from = req.rollback_gen;
        if (const auto err = store_.rollback(from, &published)) {
          out += format_rollback_error(*err);
        } else {
          const auto fresh = store_.current();
          out += format_rollback_ok(published, from, fresh->convention_count);
          snap = fresh;  // later lines in this batch see the restored model
        }
        break;
      }
      case RequestKind::kEmpty:
        metrics_.errors.inc();
        out += format_error("empty request");
        break;
      case RequestKind::kUnknownVerb:
        metrics_.errors.inc();
        out += format_error("unknown_verb");
        break;
    }
    out += '\n';
  }
}

bool Server::Loop::flush(Connection& c) {
  Metrics& metrics = server_.metrics_;
  const std::uint64_t t0 = now_ns();
  while (c.out_off < c.out_buf.size()) {
    std::size_t want = c.out_buf.size() - c.out_off;
    if (util::failpoint::any_active()) {
      const auto f = util::failpoint::hit("serve.write");
      if (f.kind != util::failpoint::Kind::kOff) metrics.injected_faults.inc();
      if (f.kind == util::failpoint::Kind::kEintr) continue;
      if (f.kind == util::failpoint::Kind::kError) {
        metrics.write_ns.add(now_ns() - t0);
        close_connection(c);  // simulated peer reset
        return false;
      }
      if (f.kind == util::failpoint::Kind::kShort) want = (want + 1) / 2;
    }
    const ssize_t n =
        ::send(c.fd.get(), c.out_buf.data() + c.out_off, want, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      c.last_activity_ms = now_ms();
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      metrics.write_ns.add(now_ns() - t0);
      close_connection(c);
      return false;
    }
  }
  if (c.out_off == c.out_buf.size()) {
    c.out_buf.clear();
    c.out_off = 0;
  } else if (c.out_off > (1u << 16)) {
    c.out_buf.erase(0, c.out_off);
    c.out_off = 0;
  }
  const std::size_t max_out = server_.config_.max_output_buffer;
  const bool want_write = c.out_off < c.out_buf.size();
  const bool pause = c.out_buf.size() - c.out_off > max_out;
  const bool resume = c.reads_paused && c.out_buf.size() - c.out_off < max_out / 2;
  if (want_write != c.want_write || pause != c.reads_paused || resume) {
    c.want_write = want_write;
    c.reads_paused = pause;
    update_epoll(c);
  }
  metrics.write_ns.add(now_ns() - t0);
  // A peer that is gone (EOF, or cut off for a protocol violation) is
  // closed once its last answer is out.
  if (c.peer_closed && c.idle()) {
    close_connection(c);
    return false;
  }
  return true;
}

void Server::Loop::update_epoll(Connection& c) {
  epoll_event ev{};
  ev.data.u64 = c.id;
  ev.events = 0;
  if (!c.reads_paused && !c.peer_closed) ev.events |= EPOLLIN;
  if (c.want_write) ev.events |= EPOLLOUT;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
}

void Server::Loop::close_connection(Connection& c) {
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, c.fd.get(), nullptr);
  server_.metrics_.connections_closed.inc();
  conns_.erase(c.id);  // destroys c
  // The last connection to close lets loop 0 finish a drain.
  if (server_.open_connections_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      server_.draining())
    server_.loops_[0]->wake();
}

}  // namespace hoiho::serve
