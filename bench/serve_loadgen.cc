// Load generator for the hoihod serving subsystem.
//
// Drives N concurrent connections of pipelined lookups against a server and
// reports sustained throughput and p50/p99/p999 request latency, plus the
// outcome of a RELOAD issued mid-run (the hot-swap acceptance check: it
// must complete with zero request errors). Emits BENCH_SERVE.json.
//
// Two modes:
//   --spawn (default)    learn a model on a synthetic world, start an
//                        in-process Server on an ephemeral loopback port,
//                        and drive it — fully self-contained (CI mode).
//   --port P [--host H]  drive an externally started hoihod; requires
//                        --hosts FILE (e.g. from hoihod --write-demo-model
//                        conv.txt --hosts-out hosts.txt).
//
// Exit code 0 iff hits > 0, request errors == 0, and the mid-run RELOAD
// (when enabled) succeeded.
//
// Run: ./build/bench/serve_loadgen [--connections N] [--pipeline W]
//      [--duration-s S] [--operators N] [--geo-frac F] [--batch-size N]
//      [--no-reload] [--json PATH]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hoiho.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/probing.h"
#include "util/strings.h"

using namespace hoiho;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ThreadResult {
  std::uint64_t sent = 0, hits = 0, misses = 0, errors = 0;
  std::uint64_t geo = 0, geo_miss = 0;  // GEO,... answers / GEO,miss among them
  std::vector<std::uint64_t> latencies_ns;
  bool io_failed = false;
};

struct Options {
  bool spawn = true;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string hosts_file;
  std::string json_path = "BENCH_SERVE.json";
  std::size_t connections = 4;
  std::size_t pipeline = 64;
  double duration_s = 2.0;
  std::size_t operators = 48;
  bool reload_mid_run = true;
  // Fraction of requests sent as `GEO <hostname>` instead of a bare lookup
  // (0 = pure-lookup workload, matching the historical bench).
  double geo_frac = 0.0;
  // When > 0, a GEOB phase after the main run: one connection sends
  // `GEOB <batch_size>` blocks for ~1s and the per-subject latency lands in
  // the JSON's "geob" section (the single-GEO numbers above are the
  // baseline it amortizes against).
  std::size_t batch_size = 0;
};

// The GEOB phase accounting: whole-block round trips divided by the batch
// size give per-subject latency.
struct GeobResult {
  std::uint64_t batches = 0, subjects = 0, geo = 0, geo_miss = 0, errors = 0;
  double per_subject_us_p50 = 0, per_subject_us_p99 = 0;
  double subjects_per_sec = 0;
  bool io_failed = false;
};

void drive(const Options& opt, const std::vector<std::string>& hostnames,
           std::size_t offset, std::uint64_t deadline_ns, ThreadResult* result) {
  std::string error;
  auto client = serve::Client::connect(opt.host, opt.port, &error);
  if (!client) {
    std::fprintf(stderr, "loadgen: connect: %s\n", error.c_str());
    result->io_failed = true;
    return;
  }
  result->latencies_ns.reserve(1 << 18);
  std::vector<std::string> batch(opt.pipeline);
  std::size_t cursor = offset % hostnames.size();
  double geo_acc = 0.0;  // deterministic geo_frac spacing, no rng needed
  while (now_ns() < deadline_ns) {
    for (std::string& slot : batch) {
      geo_acc += opt.geo_frac;
      if (geo_acc >= 1.0) {
        geo_acc -= 1.0;
        slot = "GEO " + hostnames[cursor];
      } else {
        slot = hostnames[cursor];
      }
      cursor = (cursor + 1) % hostnames.size();
    }
    const std::uint64_t t0 = now_ns();
    if (!client->send_lines(batch)) {
      result->io_failed = true;
      return;
    }
    result->sent += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto line = client->read_line();
      if (!line) {
        result->io_failed = true;
        return;
      }
      switch (serve::classify_response(*line)) {
        case serve::ResponseKind::kHit: ++result->hits; break;
        case serve::ResponseKind::kMiss: ++result->misses; break;
        case serve::ResponseKind::kGeo:
          ++result->geo;
          if (*line == "GEO,miss") ++result->geo_miss;
          break;
        default: ++result->errors; break;
      }
      result->latencies_ns.push_back(now_ns() - t0);
    }
  }
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) / 100.0 + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

GeobResult drive_geob(const Options& opt, const std::vector<std::string>& hostnames,
                      double duration_s) {
  GeobResult out;
  std::string error;
  auto client = serve::Client::connect(opt.host, opt.port, &error);
  if (!client) {
    std::fprintf(stderr, "loadgen: geob connect: %s\n", error.c_str());
    out.io_failed = true;
    return out;
  }
  std::vector<std::uint64_t> per_subject_ns;
  std::size_t cursor = 0;
  const std::uint64_t t_start = now_ns();
  const std::uint64_t deadline = t_start + static_cast<std::uint64_t>(duration_s * 1e9);
  while (now_ns() < deadline) {
    std::vector<std::string_view> subjects;
    subjects.reserve(opt.batch_size);
    for (std::size_t i = 0; i < opt.batch_size; ++i) {
      subjects.push_back(hostnames[cursor]);
      cursor = (cursor + 1) % hostnames.size();
    }
    const std::uint64_t t0 = now_ns();
    const auto block = client->geolocate_batch(subjects, &error);
    const std::uint64_t dt = now_ns() - t0;
    if (!block) {
      std::fprintf(stderr, "loadgen: geob: %s\n", error.c_str());
      out.io_failed = true;
      return out;
    }
    ++out.batches;
    out.subjects += block->size();
    per_subject_ns.push_back(dt / std::max<std::uint64_t>(opt.batch_size, 1));
    for (const std::string& line : *block) {
      if (serve::classify_response(line) != serve::ResponseKind::kGeo) {
        ++out.errors;
      } else {
        ++out.geo;
        if (line == "GEO,miss") ++out.geo_miss;
      }
    }
  }
  const double wall_s = static_cast<double>(now_ns() - t_start) / 1e9;
  std::sort(per_subject_ns.begin(), per_subject_ns.end());
  out.per_subject_us_p50 = static_cast<double>(percentile(per_subject_ns, 50)) / 1e3;
  out.per_subject_us_p99 = static_cast<double>(percentile(per_subject_ns, 99)) / 1e3;
  out.subjects_per_sec = wall_s > 0 ? static_cast<double>(out.subjects) / wall_s : 0;
  return out;
}

// Builds the spawn-mode model + hostname corpus: learn on a synthetic
// world, keep the usable conventions, and collect every hostname the model
// answers (plus a sprinkle of unanswerable ones so the MISS path is hot).
void build_corpus(std::size_t operators, std::vector<core::StoredConvention>* stored,
                  std::vector<std::string>* hostnames) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  sim::WorldConfig config;
  config.seed = 20260805;
  config.operators = operators;
  config.geohint_scheme_rate = 0.8;
  const sim::World world = sim::generate_world(dict, config);
  const measure::Measurements pings = sim::probe_pings(world, {});
  const core::Hoiho hoiho(dict);
  const core::HoihoResult result = hoiho.run(world.topology, pings);
  core::Geolocator check(dict);
  for (const core::SuffixResult& sr : result.suffixes) {
    if (!sr.usable()) continue;
    stored->push_back(core::StoredConvention{sr.nc, sr.cls});
    check.add(sr.nc);
  }
  std::size_t misses_kept = 0;
  for (const sim::HostnameTruth& truth : world.truths) {
    if (check.locate(truth.hostname)) {
      hostnames->push_back(truth.hostname);
    } else if (misses_kept < world.truths.size() / 20) {
      hostnames->push_back(truth.hostname);  // ~5% misses
      ++misses_kept;
    }
  }
}

std::vector<std::string> read_hosts(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = value();
      if (v == nullptr) return 1;
      opt.port = static_cast<std::uint16_t>(std::atoi(v));
      opt.spawn = false;
    } else if (arg == "--host") {
      const char* v = value();
      if (v == nullptr) return 1;
      opt.host = v;
    } else if (arg == "--hosts") {
      const char* v = value();
      if (v == nullptr) return 1;
      opt.hosts_file = v;
    } else if (arg == "--json") {
      const char* v = value();
      if (v == nullptr) return 1;
      opt.json_path = v;
    } else if (arg == "--connections") {
      const char* v = value();
      if (v == nullptr) return 1;
      opt.connections = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--pipeline") {
      const char* v = value();
      if (v == nullptr) return 1;
      opt.pipeline = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--duration-s") {
      const char* v = value();
      if (v == nullptr) return 1;
      opt.duration_s = std::atof(v);
    } else if (arg == "--operators") {
      const char* v = value();
      if (v == nullptr) return 1;
      opt.operators = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--geo-frac") {
      const char* v = value();
      if (v == nullptr) return 1;
      opt.geo_frac = std::atof(v);
    } else if (arg == "--batch-size") {
      const char* v = value();
      if (v == nullptr) return 1;
      opt.batch_size = static_cast<std::size_t>(std::atoi(v));
      if (opt.batch_size == 0 || opt.batch_size > serve::kMaxGeobBatch) {
        std::fprintf(stderr, "loadgen: --batch-size takes 1..%zu\n", serve::kMaxGeobBatch);
        return 1;
      }
    } else if (arg == "--spawn") {
      opt.spawn = true;
    } else if (arg == "--no-reload") {
      opt.reload_mid_run = false;
    } else {
      std::fprintf(stderr, "loadgen: unknown flag '%s'\n", std::string(arg).c_str());
      return 1;
    }
  }

  // Assemble the corpus and (in spawn mode) the in-process server.
  std::vector<std::string> hostnames;
  std::unique_ptr<serve::ModelStore> store;
  std::unique_ptr<serve::Server> server;
  std::thread server_thread;
  if (opt.spawn) {
    std::vector<core::StoredConvention> stored;
    build_corpus(opt.operators, &stored, &hostnames);
    // Serve from a real model file so the mid-run RELOAD verb exercises the
    // full disk -> nc_io -> snapshot-swap path, same as the daemon.
    const std::string model_path = opt.json_path + ".model.tmp";
    std::string save_error;
    if (!core::save_conventions_to_file(model_path, stored, geo::builtin_dictionary(),
                                        &save_error)) {
      std::fprintf(stderr, "loadgen: %s\n", save_error.c_str());
      return 2;
    }

    store = std::make_unique<serve::ModelStore>(geo::builtin_dictionary(), model_path);
    if (const auto err = store->reload()) {
      std::fprintf(stderr, "loadgen: %s\n", err->c_str());
      return 1;
    }
    serve::ServerConfig sc;
    sc.port = 0;
    server = std::make_unique<serve::Server>(*store, sc);
    std::string error;
    if (!server->start(&error)) {
      std::fprintf(stderr, "loadgen: server start: %s\n", error.c_str());
      return 1;
    }
    opt.port = server->port();
    server_thread = std::thread([&server] { server->run(); });
    std::printf("loadgen: spawned in-process server on 127.0.0.1:%u (%zu conventions, "
                "%zu hostnames)\n",
                static_cast<unsigned>(opt.port), store->current()->convention_count,
                hostnames.size());
  } else {
    if (opt.hosts_file.empty()) {
      std::fprintf(stderr, "loadgen: --port mode requires --hosts FILE\n");
      return 1;
    }
    hostnames = read_hosts(opt.hosts_file);
  }
  if (hostnames.empty()) {
    std::fprintf(stderr, "loadgen: no hostnames to send\n");
    return 1;
  }

  const std::uint64_t t_start = now_ns();
  const std::uint64_t deadline =
      t_start + static_cast<std::uint64_t>(opt.duration_s * 1e9);
  std::vector<ThreadResult> results(opt.connections);
  std::vector<std::thread> threads;
  threads.reserve(opt.connections);
  for (std::size_t i = 0; i < opt.connections; ++i)
    threads.emplace_back(drive, std::cref(opt), std::cref(hostnames),
                         i * hostnames.size() / opt.connections, deadline, &results[i]);

  // The hot-swap check: the RELOAD verb halfway through, on its own
  // connection, while every driver connection keeps hammering lookups.
  bool reload_attempted = false, reload_ok = false;
  if (opt.reload_mid_run) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(opt.duration_s * 500)));
    reload_attempted = true;
    auto admin = serve::Client::connect(opt.host, opt.port);
    const auto resp = admin ? admin->request("RELOAD") : std::nullopt;
    reload_ok = resp && serve::classify_response(*resp) == serve::ResponseKind::kReload;
    std::printf("loadgen: mid-run RELOAD -> %s\n",
                resp ? resp->c_str() : "(connection failed)");
  }

  for (std::thread& t : threads) t.join();
  const double wall_s = static_cast<double>(now_ns() - t_start) / 1e9;

  // GEOB phase (after the main run so its counters sit on top of a settled
  // baseline): one connection, whole blocks of --batch-size subjects.
  GeobResult geob;
  if (opt.batch_size > 0) {
    geob = drive_geob(opt, hostnames, std::min(opt.duration_s, 1.0));
    std::printf("loadgen: GEOB x%zu: %llu batches (%llu subjects), per-subject "
                "p50 %.1fus p99 %.1fus, %.0f subjects/sec, errors %llu\n",
                opt.batch_size, static_cast<unsigned long long>(geob.batches),
                static_cast<unsigned long long>(geob.subjects), geob.per_subject_us_p50,
                geob.per_subject_us_p99, geob.subjects_per_sec,
                static_cast<unsigned long long>(geob.errors));
  }

  // Counter schema probe: read the serving counters CI's schema guard keys
  // on back over the wire. STATS2 works identically against the in-process
  // server and an external daemon, so both modes embed real values.
  bool probe_ok = false;
  std::uint64_t sc_rejected = 0, sc_rollbacks = 0, sc_stalled = 0;
  std::uint64_t sc_bytes_mapped = 0, sc_build_text = 0, sc_build_ncb = 0, sc_build_mmap = 0;
  std::uint64_t sc_geob_batches = 0, sc_geob_subjects = 0;
  std::uint64_t sc_delta_applies = 0, sc_delta_rejected = 0;
  {
    const auto counter = [](const std::string& s2, const std::string& name,
                            std::uint64_t* out) {
      const std::string needle = "," + name + ":c=";
      const std::size_t pos = s2.find(needle);
      if (pos == std::string::npos) return false;
      *out = std::strtoull(s2.c_str() + pos + needle.size(), nullptr, 10);
      return true;
    };
    auto admin = serve::Client::connect(opt.host, opt.port);
    const auto resp = admin ? admin->request("STATS2") : std::nullopt;
    if (resp && serve::classify_response(*resp) == serve::ResponseKind::kStats2)
      probe_ok = counter(*resp, "serve_reload_rejected", &sc_rejected) &&
                 counter(*resp, "serve_rollbacks", &sc_rollbacks) &&
                 counter(*resp, "serve_worker_stalled", &sc_stalled) &&
                 counter(*resp, "model_load_bytes_mapped", &sc_bytes_mapped) &&
                 counter(*resp, "model_load_build_us{format=\"text\"}", &sc_build_text) &&
                 counter(*resp, "model_load_build_us{format=\"ncb\"}", &sc_build_ncb) &&
                 counter(*resp, "model_load_build_us{format=\"ncb_mmap\"}", &sc_build_mmap) &&
                 counter(*resp, "serve_geob_batches", &sc_geob_batches) &&
                 counter(*resp, "serve_geob_subjects", &sc_geob_subjects) &&
                 counter(*resp, "serve_delta_applies", &sc_delta_applies) &&
                 counter(*resp, "serve_delta_rejected", &sc_delta_rejected) &&
                 resp->find(",serve_reload_us:h=") != std::string::npos;
    if (!probe_ok)
      std::fprintf(stderr, "loadgen: STATS2 counter probe failed (%s)\n",
                   resp ? resp->c_str() : "no response");
  }

  std::uint64_t sent = 0, hits = 0, misses = 0, errors = 0, geo = 0, geo_miss = 0;
  bool io_failed = false;
  std::vector<std::uint64_t> latencies;
  for (ThreadResult& r : results) {
    sent += r.sent;
    hits += r.hits;
    misses += r.misses;
    errors += r.errors;
    geo += r.geo;
    geo_miss += r.geo_miss;
    io_failed = io_failed || r.io_failed;
    latencies.insert(latencies.end(), r.latencies_ns.begin(), r.latencies_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double rate = wall_s > 0 ? static_cast<double>(sent) / wall_s : 0;
  const double p50_ms = static_cast<double>(percentile(latencies, 50)) / 1e6;
  const double p99_ms = static_cast<double>(percentile(latencies, 99)) / 1e6;
  const double p999_ms = static_cast<double>(percentile(latencies, 99.9)) / 1e6;

  if (server) {
    server->stop();
    server_thread.join();
    std::remove((opt.json_path + ".model.tmp").c_str());
  }

  std::printf("loadgen: %llu lookups in %.2fs over %zu connections (pipeline %zu)\n",
              static_cast<unsigned long long>(sent), wall_s, opt.connections,
              opt.pipeline);
  std::printf("loadgen: %.0f lookups/sec, hits %llu, misses %llu, geo %llu "
              "(%llu miss), errors %llu\n",
              rate, static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(geo),
              static_cast<unsigned long long>(geo_miss),
              static_cast<unsigned long long>(errors));
  std::printf("loadgen: latency p50 %.3fms  p99 %.3fms  p99.9 %.3fms\n", p50_ms, p99_ms,
              p999_ms);

  std::ofstream json(opt.json_path);
  json << "{\n"
       << "  \"bench\": \"serve_loadgen\",\n"
       << "  \"mode\": \"" << (opt.spawn ? "spawn" : "external") << "\",\n"
       << "  \"connections\": " << opt.connections << ",\n"
       << "  \"pipeline\": " << opt.pipeline << ",\n"
       << "  \"duration_s\": " << util::fmt_double(wall_s, 3) << ",\n"
       << "  \"hostname_corpus\": " << hostnames.size() << ",\n"
       << "  \"lookups\": " << sent << ",\n"
       << "  \"lookups_per_sec\": " << util::fmt_double(rate, 1) << ",\n"
       << "  \"hits\": " << hits << ",\n"
       << "  \"misses\": " << misses << ",\n"
       << "  \"geo_frac\": " << util::fmt_double(opt.geo_frac, 3) << ",\n"
       << "  \"geo_answers\": " << geo << ",\n"
       << "  \"geo_misses\": " << geo_miss << ",\n"
       << "  \"errors\": " << errors << ",\n"
       << "  \"latency_ms\": {\"p50\": " << util::fmt_double(p50_ms, 3)
       << ", \"p99\": " << util::fmt_double(p99_ms, 3)
       << ", \"p999\": " << util::fmt_double(p999_ms, 3) << "},\n"
       << "  \"reload_mid_run\": {\"attempted\": " << (reload_attempted ? "true" : "false")
       << ", \"ok\": " << (reload_ok ? "true" : "false") << "},\n"
       << "  \"geob\": {\"batch_size\": " << opt.batch_size
       << ", \"batches\": " << geob.batches << ", \"subjects\": " << geob.subjects
       << ", \"geo_answers\": " << geob.geo << ", \"geo_misses\": " << geob.geo_miss
       << ", \"errors\": " << geob.errors
       << ", \"per_subject_us\": {\"p50\": " << util::fmt_double(geob.per_subject_us_p50, 1)
       << ", \"p99\": " << util::fmt_double(geob.per_subject_us_p99, 1) << "}"
       << ", \"subjects_per_sec\": " << util::fmt_double(geob.subjects_per_sec, 1) << "},\n"
       << "  \"serve_counters\": {\"probe_ok\": " << (probe_ok ? "true" : "false")
       << ", \"serve_reload_rejected\": " << sc_rejected
       << ", \"serve_rollbacks\": " << sc_rollbacks
       << ", \"serve_worker_stalled\": " << sc_stalled
       << ", \"model_load_bytes_mapped\": " << sc_bytes_mapped
       << ", \"model_load_build_us_text\": " << sc_build_text
       << ", \"model_load_build_us_ncb\": " << sc_build_ncb
       << ", \"model_load_build_us_ncb_mmap\": " << sc_build_mmap
       << ", \"serve_geob_batches\": " << sc_geob_batches
       << ", \"serve_geob_subjects\": " << sc_geob_subjects
       << ", \"serve_delta_applies\": " << sc_delta_applies
       << ", \"serve_delta_rejected\": " << sc_delta_rejected << "}\n"
       << "}\n";
  std::printf("loadgen: wrote %s\n", opt.json_path.c_str());

  const bool pass = hits > 0 && errors == 0 && !io_failed && probe_ok &&
                    (!reload_attempted || reload_ok) &&
                    (opt.geo_frac <= 0.0 || geo > 0) &&
                    (opt.batch_size == 0 ||
                     (geob.batches > 0 && geob.errors == 0 && !geob.io_failed));
  if (!pass) std::fprintf(stderr, "loadgen: FAILED acceptance (see counters above)\n");
  return pass ? 0 : 1;
}
