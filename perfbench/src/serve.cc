// serve_mixed: reads with writes beside them, against the shipped hoihod.
//
// Set-up materializes a sim::World four times the 48-operator S world (one
// of a fixed pool, picked by the seed), learns it, and writes the model
// (ncb), the RTT campaign and the subject map, so that GEO runs the RTT
// feasibility filter. It spawns hoihod with
// --workers 2, and precomputes every request's expected answer in-process
// (Geolocator::locate, fuse::Fuser::fuse) for both model states the run
// can serve: the full model and the model with a set of suffixes removed.
//
// Load is open-loop from one generator thread: requests alternate over two
// data connections on one fixed schedule, and an admin connection sends
// precomputed DELTA publishes (full -> reduced -> full ...) mid-run. Each
// request is timed from its scheduled send time; the generator records how
// late it ran. The rates `lo` and `hi` sit at about a quarter and three
// quarters of the capacity measured on a 4-core host; the traced run adds a
// rate ladder above `hi`. Latency and CPU figures are taken per second of
// the schedule, over the quiet seconds only (see quiet_windows).
//
// Correctness: every response must equal the in-process answer of the
// model state serving before or after any publish in flight while the
// request was outstanding. ERR lines, short reads and timeouts fail. The
// in-process side is pinned too: the learned model's digest and the digest
// of the full model's answers over the whole corpus must equal the ones
// recorded for the world in perfbench/references.txt.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <map>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <random>
#include <sstream>

#include "core/delta.h"
#include "core/ncb.h"
#include "fuse/audit.h"
#include "fuse/fuser.h"
#include "measure/rtt_io.h"
#include "serve/client.h"
#include "serve/model_store.h"
#include "serve/protocol.h"
#include "sim/probing.h"
#include "sim/scenario.h"
#include "world.h"

#ifndef PERFBENCH_HOIHOD
#define PERFBENCH_HOIHOD "hoihod"
#endif

namespace perfbench {

namespace {

namespace fuse = hoiho::fuse;
namespace serve = hoiho::serve;

constexpr std::size_t kOperators = 192;  // 4x the 48-operator S world
constexpr std::size_t kPoolWorlds = 8;   // the seed picks one of these
constexpr std::uint64_t kPoolFirstSeed = 2000;  // world seeds kPoolFirstSeed + p
constexpr int kWorkers = 2;
constexpr std::size_t kConns = 2;  // data connections of the one generator thread
constexpr std::size_t kGeobSize = 32;
constexpr std::size_t kPool = 8192;  // request templates, cycled
// The request mix. The GEO share and the GEOB block size are those of
// bench/serve_loadgen as the CI serve smoke test runs it for
// BENCH_SERVE.json (--geo-frac 0.2 --batch-size 32). The rest has no
// measured basis and is an assumption, not real traffic: GEOB blocks are 1%
// of requests (32 subjects each, so about a quarter of the subjects looked
// up), subjects are Zipf-skewed with exponent 0.9, half of the GEO requests
// name an address rather than a hostname and half of those carry a claimed
// coordinate, and a DELTA every second drops or restores 5% of the suffixes
// (the churn share of relearn_delta).
constexpr double kGeoFrac = 0.20;
constexpr double kGeobFrac = 0.01;
constexpr double kZipfExponent = 0.9;
constexpr double kGeoAddressFrac = 0.5;
constexpr double kClaimFrac = 0.5;
constexpr double kDropFrac = 0.05;   // suffixes a DELTA removes and restores
constexpr double kRateLo = 15000;    // requests/s (a GEOB block is one request)
constexpr double kRateHi = 45000;
constexpr double kLadder[] = {1.1, 1.2, 1.35, 1.5, 1.75, 2.0};  // x hi, traced run only
constexpr double kLadderSeconds = 1.0;
constexpr double kLatencyLimitMs = 1.0;
constexpr std::uint64_t kDeltaEveryNs = 1000000000ULL;
constexpr std::size_t kSetupReps = 5;
// A one-second window in which the generator sent 1% of its requests later
// than this measures the generator, not hoihod (its p99 is ~20 us when the
// host leaves it alone).
constexpr double kGeneratorLateUs = 200;

enum Verb : std::uint8_t { kLookup, kGeo, kGeob, kVerbs };

struct Template {
  Verb verb = kLookup;
  std::string wire;         // request bytes, newline-terminated
  std::size_t lines = 1;    // response lines
  std::string expect[2];    // joined response lines per model state
};

// --- the daemon ------------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  bool start(const std::vector<std::string>& argv, const std::string& log,
             const std::string& port_file, std::string* error) {
    ::unlink(port_file.c_str());
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<char*> cargv;
      for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
      cargv.push_back(nullptr);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    for (int i = 0; i < 3000; ++i) {
      std::string text;
      if (read_file(port_file, &text) && !text.empty() && text.back() == '\n') {
        port_ = static_cast<std::uint16_t>(std::atoi(text.c_str()));
        return port_ != 0;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "hoihod exited during start-up (see " + log + ")";
        return false;
      }
      ::usleep(5000);
    }
    *error = "hoihod did not publish its port";
    return false;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(5000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  int pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  int pid_ = -1;
  std::uint16_t port_ = 0;
};

int connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes.remove_prefix(static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

std::optional<serve::Client> connect_client(std::uint16_t port) {
  serve::ClientOptions options;
  options.connect_timeout_ms = 5000;
  options.io_timeout_ms = 5000;
  return serve::Client::connect("127.0.0.1", port, nullptr, options);
}

// STATS2 as name -> raw value text; empty when the request fails.
std::map<std::string, std::string> stats2(serve::Client& client) {
  std::map<std::string, std::string> out;
  const std::optional<std::string> response = client.request("STATS2");
  if (!response) return out;
  const std::string& line = *response;
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(',', pos);
    if (end == std::string::npos) end = line.size();
    const std::string item = line.substr(pos, end - pos);
    const std::size_t colon = item.rfind(':', item.find('='));
    const std::size_t eq = item.find('=');
    if (colon != std::string::npos && eq != std::string::npos)
      out[item.substr(0, colon)] = item.substr(eq + 1);
    pos = end + 1;
  }
  return out;
}

double stat_counter(const std::map<std::string, std::string>& s, const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

// One field ("p50", "p99", "count") of a STATS2 histogram value.
double stat_hist(const std::map<std::string, std::string>& s, const std::string& name,
                 const std::string& field) {
  const auto it = s.find(name);
  if (it == s.end()) return 0;
  const std::size_t pos = it->second.find(field + ":");
  return pos == std::string::npos ? 0 : std::strtod(it->second.c_str() + pos + field.size() + 1, nullptr);
}

// --- set-up ------------------------------------------------------------------

struct Setup {
  Daemon daemon;
  std::vector<Template> pool;
  std::vector<std::string> delta_files;  // publish k applies on generation g0 + k
  std::uint64_t g0 = 0;
  std::vector<std::string> lookup_subjects, geo_subjects;
  std::shared_ptr<const serve::ModelSnapshot> snap;  // state 0, for in-process timing
  fuse::FuseConfig fuse_config;
  std::size_t conventions = 0, corpus = 0;
  std::string model_digest;
  // The corpus in world order, for the answer-table digest: hostnames, and
  // addresses with the claim a GEO request may carry for them.
  std::vector<std::string> corpus_hostnames;
  std::vector<std::pair<std::string, std::optional<hoiho::geo::Coordinate>>> corpus_addresses;
};

std::string fmt_coord(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

// The GEO answer of `snap` for `subject`, audited when there is a claim.
std::string answer_geo(const serve::ModelSnapshot& snap, const fuse::FuseConfig& config,
                       const std::string& subject,
                       const std::optional<hoiho::geo::Coordinate>& claim) {
  const fuse::Fuser fuser(snap.geolocator, snap.fuse.get(), config);
  const fuse::FuseResult fused = fuser.fuse(subject, claim);
  std::optional<fuse::AuditOutcome> outcome;
  if (claim) outcome = fuse::classify_claim(fused, *claim, fuse::AuditConfig{}.agree_km);
  return serve::format_geo(fused, outcome);
}

// A claimed coordinate as the wire carries it, parsed back so that both
// sides see the same double.
std::string claim_text(const hoiho::geo::Coordinate& c) {
  return fmt_coord(c.lat) + "," + fmt_coord(c.lon);
}
hoiho::geo::Coordinate parse_claim(const std::string& text) {
  hoiho::geo::Coordinate c;
  c.lat = std::strtod(text.c_str(), nullptr);
  c.lon = std::strtod(text.c_str() + text.find(',') + 1, nullptr);
  return c;
}

// Digest of the full model's answer to every request the corpus allows:
// lookup and GEO per hostname, GEO per address with and without its claim.
std::string answers_digest(const Setup& s) {
  std::string table;
  for (const std::string& h : s.corpus_hostnames) {
    const auto loc = s.snap->geolocator.locate(h);
    table += (loc ? serve::format_hit(*loc) : serve::format_miss()) + "\n";
    table += answer_geo(*s.snap, s.fuse_config, h, std::nullopt) + "\n";
  }
  for (const auto& [address, claim] : s.corpus_addresses) {
    table += answer_geo(*s.snap, s.fuse_config, address, std::nullopt) + "\n";
    if (claim) table += answer_geo(*s.snap, s.fuse_config, address, claim) + "\n";
  }
  return hex64(fnv64(table));
}

std::uint64_t pool_world(std::uint64_t seed) {
  return kPoolFirstSeed + std::mt19937_64(seed)() % kPoolWorlds;
}

bool set_up(const Args& args, std::uint64_t world_seed, Setup& s, std::string* error) {
  const hoiho::geo::GeoDictionary& dict = hoiho::geo::builtin_dictionary();
  hoiho::sim::WorldConfig wc;
  wc.seed = world_seed;
  wc.operators = args.tiny ? 12 : kOperators;
  wc.geohint_scheme_rate = 0.8;
  wc.hostname_rate = 0.8;
  const hoiho::sim::World world = hoiho::sim::generate_world(dict, wc);
  hoiho::sim::PingConfig pc;
  pc.seed = world_seed * 2 + 1;
  const hoiho::measure::Measurements pings = hoiho::sim::probe_pings(world, pc);
  core::HoihoConfig hc;
  hc.threads = hardware_threads();
  const core::HoihoResult learned = core::Hoiho(dict, hc).run(world.topology, pings);
  std::vector<core::StoredConvention> stored = model_conventions(learned);
  core::sort_conventions(stored);
  s.conventions = stored.size();

  const std::string model_path = args.workdir + "/model.ncb";
  const std::string rtt_path = args.workdir + "/rtt.txt";
  const std::string subjects_path = args.workdir + "/subjects.csv";
  if (!core::save_model_to_file(model_path, stored, dict, error)) return false;
  std::string model_bytes;
  if (!read_file(model_path, &model_bytes)) {
    *error = "cannot read back " + model_path;
    return false;
  }
  s.model_digest = hex64(fnv64(model_bytes));
  {
    std::ofstream rtt(rtt_path);
    hoiho::measure::save_measurements(rtt, pings);
    std::ofstream subj(subjects_path);
    for (const hoiho::topo::Router& router : world.topology.routers()) {
      std::string first;
      for (const hoiho::topo::Interface& ifc : router.interfaces)
        if (ifc.hostname) {
          first = std::string(ifc.hostname->full);
          break;
        }
      for (const hoiho::topo::Interface& ifc : router.interfaces) {
        if (ifc.hostname) subj << ifc.hostname->full << ',' << router.id << '\n';
        if (!ifc.address.empty() && !first.empty())
          subj << ifc.address << ',' << router.id << ',' << first << '\n';
      }
    }
    if (!rtt || !subj) {
      *error = "cannot write the RTT or subject file";
      return false;
    }
  }

  // The fusion context exactly as hoihod builds it: from the files.
  hoiho::io::LoadOptions lopt;
  lopt.lenient = true;
  std::ifstream sin(subjects_path);
  const auto subjects = fuse::load_subjects(sin, lopt);
  std::size_t router_count = 0;
  for (const fuse::SubjectRow& r : *subjects)
    router_count = std::max(router_count, static_cast<std::size_t>(r.router) + 1);
  std::ifstream rin(rtt_path);
  auto meas = hoiho::measure::load_measurements(rin, router_count, lopt);
  if (!subjects || !meas) {
    *error = "cannot reload the RTT or subject file";
    return false;
  }
  const auto ctx = fuse::FuseContext::build(*subjects, std::move(*meas), dict);

  // Model state 1: a seeded set of suffixes removed. DELTA publishes
  // alternate drop / restore.
  std::mt19937_64 rng(args.seed * 7919 + 17);
  core::ModelDelta drop, restore;
  for (const core::StoredConvention& sc : stored) {
    if (std::uniform_real_distribution<double>(0, 1)(rng) >= kDropFrac) continue;
    drop.removes.push_back(sc.nc.suffix);
    restore.upserts.push_back(sc);
  }
  serve::ModelStore full(dict, model_path), reduced(dict, model_path);
  for (serve::ModelStore* st : {&full, &reduced}) {
    if (const auto err = st->reload()) {
      *error = "in-process model: " + *err;
      return false;
    }
    st->set_fuse_context(ctx);
  }
  drop.base_generation = reduced.generation();
  if (const auto err = reduced.apply_delta(drop)) {
    *error = "in-process drop delta: " + *err;
    return false;
  }
  const std::shared_ptr<const serve::ModelSnapshot> snaps[2] = {full.current(), reduced.current()};
  s.fuse_config.rtt.slack_ms = 0.0;  // hoihod's --rtt-slack-ms default

  // Corpus: every hostname plus every addressed interface; requests draw
  // subjects Zipf-skewed over a seeded shuffle of it.
  std::vector<std::string> hostnames, addresses;
  std::vector<std::optional<hoiho::geo::Coordinate>> claim_of_address;
  for (const hoiho::sim::HostnameTruth& t : world.truths) hostnames.push_back(t.hostname);
  s.corpus_addresses.clear();
  for (const fuse::SubjectRow& r : *subjects)
    if (!r.hostname.empty()) {
      addresses.push_back(r.subject);
      const auto loc = world.topology.router(r.router).true_location;
      claim_of_address.push_back(
          loc == hoiho::geo::kInvalidLocation
              ? std::nullopt
              : std::optional(parse_claim(claim_text(dict.location(loc).coord))));
      s.corpus_addresses.emplace_back(r.subject, claim_of_address.back());
    }
  s.corpus_hostnames = hostnames;
  std::shuffle(hostnames.begin(), hostnames.end(), rng);
  s.corpus = hostnames.size() + addresses.size();
  const auto zipf_index = [&rng](std::size_t n) {
    // Inverse-CDF draw of rank r with weight 1/(r+1)^kZipfExponent
    // (continuous approximation).
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const double a = 1 - kZipfExponent, max = std::pow(static_cast<double>(n) + 1, a);
    const double r = std::pow(1 + u * (max - 1), 1 / a) - 1;
    return std::min(n - 1, static_cast<std::size_t>(r));
  };
  const auto uniform = [&rng] { return std::uniform_real_distribution<double>(0, 1)(rng); };

  // Exact verb shares in a seeded order: how many GEOB blocks a lookup can
  // queue behind sets its tail, so that count must not vary with the seed.
  const std::size_t pool_size = args.tiny ? 512 : kPool;
  const auto n_geo = static_cast<std::size_t>(std::lround(kGeoFrac * static_cast<double>(pool_size)));
  const auto n_geob = static_cast<std::size_t>(std::lround(kGeobFrac * static_cast<double>(pool_size)));
  std::vector<Verb> verbs(pool_size, kLookup);
  std::fill_n(verbs.begin(), n_geo, kGeo);
  std::fill_n(verbs.begin() + static_cast<std::ptrdiff_t>(n_geo), n_geob, kGeob);
  std::shuffle(verbs.begin(), verbs.end(), rng);
  s.pool.clear();
  for (const Verb verb : verbs) {
    Template t;
    t.verb = verb;
    if (verb == kLookup) {
      const std::string& h = hostnames[zipf_index(hostnames.size())];
      t.wire = h + "\n";
      for (int st = 0; st < 2; ++st) {
        const auto loc = snaps[st]->geolocator.locate(h);
        t.expect[st] = loc ? serve::format_hit(*loc) : serve::format_miss();
      }
      s.lookup_subjects.push_back(h);
    } else if (verb == kGeo) {
      std::string subject;
      std::optional<hoiho::geo::Coordinate> claim;
      if (uniform() >= kGeoAddressFrac || addresses.empty()) {
        subject = hostnames[zipf_index(hostnames.size())];
      } else {
        const std::size_t k = zipf_index(addresses.size());
        subject = addresses[k];
        if (claim_of_address[k] && uniform() < kClaimFrac) claim = claim_of_address[k];
      }
      t.wire = "GEO " + subject + (claim ? " " + claim_text(*claim) : "") + "\n";
      for (int st = 0; st < 2; ++st)
        t.expect[st] = answer_geo(*snaps[st], s.fuse_config, subject, claim);
      s.geo_subjects.push_back(subject);
    } else {
      std::vector<std::string> subs;
      for (std::size_t k = 0; k < kGeobSize; ++k) subs.push_back(hostnames[zipf_index(hostnames.size())]);
      t.wire = "GEOB " + std::to_string(kGeobSize) + "\n";
      for (const std::string& sub : subs) t.wire += sub + "\n";
      t.lines = 1 + kGeobSize;
      for (int st = 0; st < 2; ++st) {
        t.expect[st] = serve::format_geob_header(kGeobSize);
        for (const std::string& sub : subs)
          t.expect[st] += "\n" + answer_geo(*snaps[st], s.fuse_config, sub, std::nullopt);
      }
    }
    s.pool.push_back(std::move(t));
  }
  if (args.faults.wrong_answer) s.pool[0].expect[0] = s.pool[0].expect[1] = "(deliberately wrong)";
  s.snap = snaps[0];

  const std::string log = args.workdir + "/hoihod.log";
  const std::string port_file = args.workdir + "/port.txt";
  const std::vector<std::string> argv = {
      PERFBENCH_HOIHOD, "--model", model_path, "--port", "0", "--port-file", port_file,
      "--workers", std::to_string(kWorkers), "--watch-ms", "0", "--subjects", subjects_path,
      "--rtt", rtt_path};
  if (!s.daemon.start(argv, log, port_file, error)) return false;

  // Generation numbering continues from what the daemon serves now.
  std::optional<serve::Client> probe = connect_client(s.daemon.port());
  s.g0 = probe ? static_cast<std::uint64_t>(stat_counter(stats2(*probe), "generation")) : 0;
  if (s.g0 == 0) {
    *error = "cannot read the serving generation";
    return false;
  }
  s.delta_files.clear();
  for (std::size_t k = 0; k < 32; ++k) {
    core::ModelDelta d = k % 2 == 0 ? drop : restore;
    d.base_generation = s.g0 + k;
    const std::string path = args.workdir + "/delta-" + std::to_string(k) + ".txt";
    char real[4096];
    if (!write_file(path, core::serialize_model_delta(d, dict)) ||
        ::realpath(path.c_str(), real) == nullptr) {
      *error = "cannot write " + path;
      return false;
    }
    s.delta_files.push_back(real);
  }
  return true;
}

// --- the load generator ----------------------------------------------------

struct Record {
  std::uint64_t sched = 0, sent = 0, recv = 0;
  std::uint32_t tmpl = 0;
  std::uint8_t mask = 0;  // bit s: matched model state s
  bool done = false;
};

struct Publish {
  std::uint64_t send = 0, recv = 0;
  int state_after = 0;
  bool ok = false;
};

// Taken at each whole second of a step's schedule: window k runs from mark
// k to mark k + 1.
struct Mark {
  double steal_ticks = 0;
  double daemon_cpu_s = 0;
};

struct StepResult {
  double rate = 0;
  std::vector<double> lat_ms[kVerbs];
  std::vector<std::uint64_t> sched[kVerbs];  // scheduled send time of each lat_ms entry
  std::vector<double> all_ms;
  std::vector<double> late_us;
  std::size_t attempted = 0, failed = 0, backlog_end = 0;
  std::vector<double> delta_ms;
  std::vector<std::string> errors;
  std::uint64_t start = 0;   // scheduled send time of the first request
  std::vector<Mark> marks;   // at start + k seconds, then one past the last window
  std::vector<std::size_t> window_requests;  // requests scheduled in each window
  std::vector<double> window_late_us_p99;    // generator lateness in each window
};

std::size_t window_of(const StepResult& r, std::uint64_t sched) {
  return static_cast<std::size_t>((sched - r.start) / 1000000000ULL);
}

struct Shared {
  const std::vector<Template>* pool = nullptr;
  const std::vector<std::string>* delta_files = nullptr;
  std::size_t* next_delta = nullptr;  // publishes so far, across steps
  int* state = nullptr;               // model state after the last publish
  int daemon_pid = -1;
};

struct DriveOut {
  std::vector<Record> recs;
  std::vector<double> late_us;
  std::vector<Publish> publishes;
  std::vector<Mark> marks;
  bool io_failed = false;
};

// The open-loop generator: one thread, requests round-robin over the data
// connections on a fixed schedule; responses are matched in order per
// connection and compared with both model states' answers.
void drive(const std::array<int, kConns>& fds, int admin_fd, const Shared& sh,
           std::size_t offset, std::uint64_t start, std::uint64_t interval, std::size_t total,
           bool deltas, DriveOut* out) {
  struct Conn {
    int fd = -1;
    std::string outbuf, inbuf, pending;  // pending: lines of the current multi-line response
    std::size_t sent_off = 0, lines_seen = 0, next_recv = 0;
    std::vector<std::uint32_t> order;  // record indices in send order
  };
  // Wake for each send on time: the default 50 us timer slack would make
  // the generator up to 50 us late after every wait.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const std::vector<Template>& pool = *sh.pool;
  out->recs.resize(total);
  out->late_us.reserve(total);
  std::array<Conn, kConns> conns;
  for (std::size_t c = 0; c < kConns; ++c) {
    conns[c].fd = fds[c];
    conns[c].order.reserve(total / kConns + 1);
  }
  std::string admin_in;
  std::size_t next = 0, received = 0;
  const std::uint64_t end = start + interval * total;
  const std::uint64_t give_up = end + 3000000000ULL;
  std::uint64_t next_delta_at = deltas ? start + kDeltaEveryNs / 2 : UINT64_MAX;
  bool delta_outstanding = false;
  char chunk[65536];
  std::uint64_t next_mark = start;
  for (;;) {
    std::uint64_t now = now_ns();
    if (now >= next_mark && next_mark <= end) {
      out->marks.push_back({host_steal_ticks(), child_cpu_s(sh.daemon_pid)});
      next_mark += 1000000000ULL;
    }
    while (next < total && start + interval * next <= now) {
      Record& r = out->recs[next];
      r.sched = start + interval * next;
      r.sent = now;
      r.tmpl = static_cast<std::uint32_t>((offset + next) % pool.size());
      Conn& c = conns[next % kConns];
      c.outbuf += pool[r.tmpl].wire;
      c.order.push_back(static_cast<std::uint32_t>(next));
      out->late_us.push_back(static_cast<double>(now - r.sched) / 1e3);
      ++next;
    }
    if (deltas && !delta_outstanding && now >= next_delta_at && now < end &&
        *sh.next_delta < sh.delta_files->size()) {
      Publish p;
      p.send = now;
      out->publishes.push_back(p);
      delta_outstanding = send_all(admin_fd, "DELTA " + (*sh.delta_files)[*sh.next_delta] + "\n");
      next_delta_at += kDeltaEveryNs;
    }
    for (Conn& c : conns) {
      if (c.sent_off < c.outbuf.size()) {
        const ssize_t n = ::send(c.fd, c.outbuf.data() + c.sent_off, c.outbuf.size() - c.sent_off,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) c.sent_off += static_cast<std::size_t>(n);
        else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) out->io_failed = true;
        if (c.sent_off == c.outbuf.size()) {
          c.outbuf.clear();
          c.sent_off = 0;
        }
      }
      for (;;) {
        const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (n <= 0) {
          if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) out->io_failed = true;
          break;
        }
        c.inbuf.append(chunk, static_cast<std::size_t>(n));
      }
      std::size_t pos = 0;
      now = now_ns();
      for (std::size_t nl; c.next_recv < c.order.size() &&
                           (nl = c.inbuf.find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        Record& r = out->recs[c.order[c.next_recv]];
        const Template& t = pool[r.tmpl];
        const std::string_view line(c.inbuf.data() + pos, nl - pos);
        if (t.lines == 1) {
          r.mask = static_cast<std::uint8_t>((line == t.expect[0] ? 1 : 0) |
                                             (line == t.expect[1] ? 2 : 0));
        } else {
          if (c.lines_seen++ > 0) c.pending += '\n';
          c.pending.append(line);
          if (c.lines_seen < t.lines) continue;
          r.mask = static_cast<std::uint8_t>((c.pending == t.expect[0] ? 1 : 0) |
                                             (c.pending == t.expect[1] ? 2 : 0));
          c.pending.clear();
          c.lines_seen = 0;
        }
        r.recv = now;
        r.done = true;
        ++c.next_recv;
        ++received;
      }
      c.inbuf.erase(0, pos);
    }
    if (delta_outstanding) {
      for (;;) {
        const ssize_t n = ::recv(admin_fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (n <= 0) break;
        admin_in.append(chunk, static_cast<std::size_t>(n));
      }
      const std::size_t nl = admin_in.find('\n');
      if (nl != std::string::npos) {
        Publish& p = out->publishes.back();
        p.recv = now_ns();
        p.ok = admin_in.compare(0, 9, "DELTA,ok,") == 0;
        if (p.ok) {
          *sh.state ^= 1;
          ++*sh.next_delta;
        }
        p.state_after = *sh.state;
        admin_in.erase(0, nl + 1);
        delta_outstanding = false;
      }
    }
    if ((next == total && received == total && !delta_outstanding) || out->io_failed) break;
    if (now > give_up) break;
    const std::uint64_t wake = next < total ? start + interval * next : now + 1000000;
    const std::uint64_t wait = wake > now ? wake - now : 0;
    std::array<pollfd, kConns + 1> pfds{};
    for (std::size_t c = 0; c < kConns; ++c)
      pfds[c] = {conns[c].fd,
                 static_cast<short>(POLLIN | (conns[c].sent_off < conns[c].outbuf.size() ? POLLOUT : 0)),
                 0};
    pfds[kConns] = {admin_fd, POLLIN, 0};
    timespec ts{static_cast<time_t>(wait / 1000000000ULL), static_cast<long>(wait % 1000000000ULL)};
    ::ppoll(pfds.data(), delta_outstanding ? kConns + 1 : kConns, &ts, nullptr);
  }
  // A step shorter than a second is one window, closed here.
  while (out->marks.size() < 2) out->marks.push_back({host_steal_ticks(), child_cpu_s(sh.daemon_pid)});
}

StepResult run_step(Setup& s, const std::array<int, kConns>& fds, int admin_fd, double rate,
                    double seconds, bool deltas, std::size_t* next_delta, int* state,
                    std::size_t offset) {
  StepResult res;
  res.rate = rate;
  const auto interval = static_cast<std::uint64_t>(1e9 / rate);
  const auto total = static_cast<std::size_t>(rate * seconds);
  const int state_before = *state;
  Shared sh{&s.pool, &s.delta_files, next_delta, state, s.daemon.pid()};
  std::array<DriveOut, 1> outs;
  const std::uint64_t start = now_ns() + 20000000ULL;
  drive(fds, admin_fd, sh, offset, start, interval, total, deltas, &outs[0]);

  res.marks = outs[0].marks;
  res.start = start;
  res.window_requests.assign(res.marks.size() - 1, 0);
  std::vector<std::vector<double>> late_by_window(res.window_requests.size());
  const std::vector<Publish>& pubs = outs[0].publishes;
  for (const Publish& p : pubs) {
    ++res.attempted;
    if (!p.ok) {
      ++res.failed;
      res.errors.push_back("DELTA publish refused");
    } else {
      res.delta_ms.push_back(static_cast<double>(p.recv - p.send) / 1e6);
    }
  }
  const std::uint64_t end = start + interval * total;
  for (const DriveOut& o : outs) {
    if (o.io_failed) res.errors.push_back("connection failed");
    res.late_us.insert(res.late_us.end(), o.late_us.begin(), o.late_us.end());
    for (std::size_t i = 0; i < o.recs.size(); ++i) {
      const Record& r = o.recs[i];
      ++res.attempted;
      if (!r.done || r.recv > end) ++res.backlog_end;
      const Template& t = s.pool[r.tmpl];
      // States that may have served this request.
      int at_send = state_before;
      std::uint8_t allowed = 0;
      for (const Publish& p : pubs) {
        if (p.ok && p.recv <= r.sent) at_send = p.state_after;
        if (p.ok && p.send <= (r.done ? r.recv : UINT64_MAX) && p.recv >= r.sent)
          allowed |= static_cast<std::uint8_t>(1u << p.state_after) |
                     static_cast<std::uint8_t>(1u << (p.state_after ^ 1));
      }
      allowed |= static_cast<std::uint8_t>(1u << at_send);
      const double ms = r.done ? static_cast<double>(r.recv - r.sched) / 1e6 : 1e9;
      if (!r.done || (r.mask & allowed) == 0) {
        ++res.failed;
        if (res.errors.size() < 4)
          res.errors.push_back(r.done ? "wrong answer to '" + t.wire.substr(0, t.wire.find('\n')) + "'"
                                      : "no answer (timeout)");
      }
      res.lat_ms[t.verb].push_back(ms);
      res.sched[t.verb].push_back(r.sched);
      res.all_ms.push_back(ms);
      const std::size_t w = window_of(res, r.sched);
      if (w < res.window_requests.size() && i < o.late_us.size()) {
        ++res.window_requests[w];
        late_by_window[w].push_back(o.late_us[i]);
      }
    }
  }
  for (const std::vector<double>& late : late_by_window)
    res.window_late_us_p99.push_back(percentile(late, 99));
  return res;
}

// The quiet windows of a step: those in which the host stole no more CPU
// time from this machine than in its median window, and in which the
// generator kept its schedule (p99 lateness within kGeneratorLateUs). On a
// shared host, latency jumps in the seconds the hypervisor runs other
// tenants; leaving those out measures hoihod rather than the host or the
// generator. When the generator was late in every calm window, the calm
// windows are kept.
std::vector<std::size_t> quiet_windows(const StepResult& r) {
  std::vector<double> steal;
  for (std::size_t w = 0; w + 1 < r.marks.size(); ++w)
    steal.push_back(r.marks[w + 1].steal_ticks - r.marks[w].steal_ticks);
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> calm, quiet;
  for (std::size_t w = 0; w < steal.size(); ++w)
    if (steal[w] <= sorted[(sorted.size() - 1) / 2]) calm.push_back(w);
  for (const std::size_t w : calm)
    if (r.window_late_us_p99[w] <= kGeneratorLateUs) quiet.push_back(w);
  return quiet.empty() ? calm : quiet;
}

// Latency percentile `p` of `verbs` in each quiet window, then the median
// over them.
double windowed(const StepResult& r, std::initializer_list<Verb> verbs, double p) {
  std::vector<std::vector<double>> windows(r.window_requests.size());
  for (const Verb v : verbs)
    for (std::size_t i = 0; i < r.sched[v].size(); ++i) {
      const std::size_t w = window_of(r, r.sched[v][i]);
      if (w < windows.size()) windows[w].push_back(r.lat_ms[v][i]);
    }
  std::vector<double> per_window;
  for (const std::size_t w : quiet_windows(r)) per_window.push_back(percentile(windows[w], p));
  return median(per_window);
}

// hoihod CPU per request in each quiet window, then the median over them.
double windowed_cpu_ms(const StepResult& r) {
  std::vector<double> per_window;
  for (const std::size_t w : quiet_windows(r))
    if (r.window_requests[w] > 0)
      per_window.push_back((r.marks[w + 1].daemon_cpu_s - r.marks[w].daemon_cpu_s) * 1e3 /
                           static_cast<double>(r.window_requests[w]));
  return median(per_window);
}

bool meets_limit(const StepResult& r) {
  if (r.failed > 0) return false;
  for (int v = 0; v < kVerbs; ++v)
    if (!r.lat_ms[v].empty() && windowed(r, {static_cast<Verb>(v)}, 99) > kLatencyLimitMs)
      return false;
  return static_cast<double>(r.backlog_end) <= std::max(8.0, r.rate * 0.002);
}

}  // namespace

std::string serve_references(const std::string& workdir) {
  Args args;
  args.workdir = workdir;
  std::string out, error;
  for (std::size_t p = 0; p < kPoolWorlds; ++p) {
    const std::uint64_t world_seed = kPoolFirstSeed + p;
    Setup s;
    if (!set_up(args, world_seed, s, &error)) return "# set-up failed: " + error + "\n";
    const std::string prefix = "serve_mixed " + std::to_string(world_seed);
    out += prefix + " model " + s.model_digest + "\n";
    out += prefix + " answers " + answers_digest(s) + "\n";
  }
  return out;
}

Result run_serve(const Args& args) {
  Result res;
  std::string error;
  std::vector<double> setup_ms;
  std::unique_ptr<Setup> s;
  const std::uint64_t world_seed = pool_world(args.seed);
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    s.reset();  // stops the previous daemon
    s = std::make_unique<Setup>();
    const std::uint64_t t0 = now_ns();
    if (!set_up(args, world_seed, *s, &error)) {
      res.fail("set-up: " + error);
      return res;
    }
    setup_ms.push_back(ms_since(t0));
  }
  res.detail["world_seed"] = std::to_string(world_seed);
  res.detail["conventions"] = std::to_string(s->conventions);
  res.detail["corpus"] = std::to_string(s->corpus);
  res.detail["rates"] = std::to_string(kRateLo) + "/" + std::to_string(kRateHi);

  // The in-process side against the recorded digests of this world.
  if (!args.tiny) {
    const std::string prefix = "serve_mixed " + std::to_string(world_seed);
    const std::pair<const char*, std::string> checks[] = {{"model", s->model_digest},
                                                          {"answers", answers_digest(*s)}};
    for (const auto& [what, digest] : checks) {
      ++res.attempted;
      const std::optional<std::string> recorded = recorded_reference(prefix + " " + what);
      res.detail[std::string(what) + "_digest"] = digest;
      if (!recorded)
        res.fail(prefix + ": no recorded " + what + " digest");
      else if (*recorded != digest)
        res.fail(prefix + ": " + what + " digest " + digest + " != recorded " + *recorded);
    }
  }

  std::array<int, kConns> fds{};
  for (int& fd : fds) fd = connect_tcp(s->daemon.port());
  const int admin_fd = connect_tcp(s->daemon.port());
  std::optional<serve::Client> stats = connect_client(s->daemon.port());
  const auto close_all = [&] {
    for (const int fd : fds) if (fd >= 0) ::close(fd);
    if (admin_fd >= 0) ::close(admin_fd);
  };
  if (std::any_of(fds.begin(), fds.end(), [](int fd) { return fd < 0; }) || admin_fd < 0 ||
      !stats) {
    close_all();
    res.fail("cannot connect to hoihod");
    return res;
  }
  const auto before = stats2(*stats);
  std::size_t next_delta = 0;
  int state = 0;
  const double seconds = args.tiny ? 1.0 : static_cast<double>(args.seconds);
  const std::uint64_t tl = now_ns();
  StepResult lo = run_step(*s, fds, admin_fd, kRateLo, 0.3 * seconds, true, &next_delta, &state, 0);
  const std::uint64_t th = now_ns();
  StepResult hi = run_step(*s, fds, admin_fd, kRateHi, 0.7 * seconds, true, &next_delta, &state,
                           s->pool.size() / 4);
  const std::uint64_t te = now_ns();
  const auto after = stats2(*stats);
  const double rss = peak_rss_mb(s->daemon.pid());

  for (const StepResult* r : {&lo, &hi}) {
    res.attempted += r->attempted;
    res.failed += r->failed;
    for (const std::string& e : r->errors)
      if (res.errors.size() < 8) res.errors.push_back(e);
  }
  res.detail["requests_lo"] = std::to_string(lo.all_ms.size());
  res.detail["requests_hi"] = std::to_string(hi.all_ms.size());
  res.detail["publishes"] = std::to_string(next_delta);
  res.detail["late_us_p50_hi"] = std::to_string(percentile(hi.late_us, 50));
  res.detail["late_us_p99_hi"] = std::to_string(percentile(hi.late_us, 99));

  if (!args.trace) {
    close_all();
    res.add("setup_s", median(setup_ms) / 1e3);
    res.add("op_p50_ms", windowed(hi, {kLookup}, 50));
    res.add("op_tail_ms", windowed(hi, {kLookup}, 75));
    res.add("op_cpu_ms", windowed_cpu_ms(hi));
    return res;
  }

  // Traced run: the same two steps, then a ladder for the highest rate that
  // meets the limit, then the in-process layers, timed call by call.
  obs::Tracer tracer(1u << 15);
  record_span(&tracer, "step_lo", tl, th, std::to_string(kRateLo), lo.all_ms.size());
  record_span(&tracer, "step_hi", th, te, std::to_string(kRateHi), hi.all_ms.size());
  double max_rps = meets_limit(hi) ? kRateHi : (meets_limit(lo) ? kRateLo : 0);
  if (meets_limit(hi)) {
    for (const double f : kLadder) {
      const std::uint64_t t0 = now_ns();
      const StepResult r = run_step(*s, fds, admin_fd, kRateHi * f, kLadderSeconds, false,
                                    &next_delta, &state, 0);
      record_span(&tracer, "ladder", t0, now_ns(), std::to_string(kRateHi * f), r.all_ms.size());
      if (!meets_limit(r)) break;
      max_rps = kRateHi * f;
    }
  }
  close_all();

  // In-process: locate and fuse over the pool's subjects, untimed-span pass
  // first, then with a span per call for the trace overhead.
  std::vector<double> locate_us, fuse_us;
  double candidates = 0, infeasible = 0;
  const fuse::Fuser fuser(s->snap->geolocator, s->snap->fuse.get(), s->fuse_config);
  const std::uint64_t tp0 = now_ns();
  for (const std::string& h : s->lookup_subjects) {
    const std::uint64_t t0 = now_ns();
    const auto loc = s->snap->geolocator.locate(h);
    locate_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    (void)loc;
  }
  for (const std::string& g : s->geo_subjects) {
    const std::uint64_t t0 = now_ns();
    const fuse::FuseResult fused = fuser.fuse(g);
    fuse_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    candidates += static_cast<double>(fused.set.candidates.size());
    for (const fuse::Candidate& c : fused.set.candidates)
      if (c.rtt_checked && !c.feasible) infeasible += 1;
  }
  const double plain_ms = ms_since(tp0);
  const std::uint64_t tt0 = now_ns();
  for (const std::string& h : s->lookup_subjects) {
    obs::Span span(&tracer, "locate", h);
    s->snap->geolocator.locate(h);
  }
  for (const std::string& g : s->geo_subjects) {
    obs::Span span(&tracer, "fuse", g);
    fuser.fuse(g);
  }
  const double traced_ms = ms_since(tt0);
  res.dropped_spans = tracer.dropped();
  if (tracer.dropped() != 0) res.fail("tracer dropped spans");

  const auto delta = [&](const char* name) { return stat_counter(after, name) - stat_counter(before, name); };
  const double reqs = delta("serve_requests");
  res.add("core.locate_us_p50", percentile(locate_us, 50));
  res.add("core.locate_us_p99", percentile(locate_us, 99));
  res.add("fuse.fuse_us_p50", percentile(fuse_us, 50));
  res.add("fuse.fuse_us_p99", percentile(fuse_us, 99));
  res.add("fuse.candidates_per_geo", fuse_us.empty() ? 0 : candidates / static_cast<double>(fuse_us.size()));
  res.add("fuse.rtt_infeasible_frac", candidates <= 0 ? 0 : infeasible / candidates);
  res.add("serve.batch_us_p50", stat_hist(after, "serve_batch_ns", "p50") / 1e3);
  res.add("serve.batch_us_p99", stat_hist(after, "serve_batch_ns", "p99") / 1e3);
  res.add("serve.avg_batch_lines", delta("serve_batches") <= 0 ? 0 : delta("serve_batched_lines") / delta("serve_batches"));
  res.add("serve.parse_ns_per_req", reqs <= 0 ? 0 : delta("serve_parse_ns") / reqs);
  res.add("serve.lookup_ns_per_req", reqs <= 0 ? 0 : delta("serve_lookup_ns") / reqs);
  res.add("serve.write_ns_per_req", reqs <= 0 ? 0 : delta("serve_write_ns") / reqs);
  res.add("serve.overhead_us_p50", windowed(lo, {kLookup}, 50) * 1e3 - percentile(locate_us, 50));
  res.add("serve.shed_busy", delta("serve_shed_busy"));
  res.add("serve.deadline_expired", delta("serve_deadline_expired"));
  res.add("serve.delta_apply_us_p50", stat_hist(after, "serve_delta_apply_us", "p50"));
  std::vector<double> delta_ms = lo.delta_ms;
  delta_ms.insert(delta_ms.end(), hi.delta_ms.begin(), hi.delta_ms.end());
  res.add("serve.delta_ms_p50", median(delta_ms));
  res.add("serve.lookup_p99_ms", windowed(hi, {kLookup}, 99));
  res.add("serve.geo_p99_ms", windowed(hi, {kGeo}, 99));
  res.add("serve.geob_p99_ms", windowed(hi, {kGeob}, 99));
  res.add("serve.p99_ms_lo", windowed(lo, {kLookup, kGeo, kGeob}, 99));
  res.add("serve.max_rps", max_rps);
  res.add("loadgen.late_us_p99_lo", percentile(lo.late_us, 99));
  res.add("loadgen.late_us_p99_hi", percentile(hi.late_us, 99));
  res.add("loadgen.backlog_end_lo", static_cast<double>(lo.backlog_end));
  res.add("loadgen.backlog_end_hi", static_cast<double>(hi.backlog_end));
  res.add("mem.peak_rss_mb", rss);
  res.add("obs.trace_overhead_frac", plain_ms <= 0 ? 0 : traced_ms / plain_ms - 1);
  res.spans = tracer.spans();
  return res;
}

}  // namespace perfbench
