// End-to-end tests for the serving subsystem: protocol grammar, the
// hot-reloadable ModelStore, and a live epoll Server driven through the
// blocking Client over loopback.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/delta.h"
#include "core/nc_io.h"
#include "regex/parser.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/failpoint.h"
#include "util/net.h"
#include "util/strings.h"

namespace hoiho::serve {
namespace {

geo::LocationId find_city(const geo::GeoDictionary& dict, std::string_view city,
                          std::string_view country, std::string_view state = "") {
  for (geo::LocationId id :
       dict.lookup(geo::HintType::kCityName, geo::squash_place_name(city))) {
    if (!geo::same_country(dict.location(id).country, country)) continue;
    if (!state.empty() && dict.location(id).state != state) continue;
    return id;
  }
  return geo::kInvalidLocation;
}

// The he.net-style convention from test_nc_io: IATA extraction plus the
// learned "ash" -> Ashburn VA deviation.
std::vector<core::StoredConvention> he_net_model(const geo::GeoDictionary& dict) {
  std::vector<core::StoredConvention> out(1);
  out[0].nc.suffix = "he.net";
  out[0].cls = core::NcClass::kGood;
  core::GeoRegex gr;
  gr.regex = *rx::parse("^.+\\.([a-z]{3})\\d+\\.he\\.net$");
  gr.plan.roles = {core::Role::kIata};
  out[0].nc.regexes.push_back(std::move(gr));
  out[0].nc.learned[{geo::HintType::kIata, "ash"}] = find_city(dict, "Ashburn", "us", "va");
  return out;
}

std::vector<core::StoredConvention> zayo_model(const geo::GeoDictionary& dict) {
  (void)dict;
  std::vector<core::StoredConvention> out(1);
  out[0].nc.suffix = "zayo.com";
  out[0].cls = core::NcClass::kGood;
  core::GeoRegex gr;
  gr.regex = *rx::parse("^([a-z]{3})\\d+\\.zayo\\.com$");
  gr.plan.roles = {core::Role::kIata};
  out[0].nc.regexes.push_back(std::move(gr));
  return out;
}

void write_model(const std::string& path, const std::vector<core::StoredConvention>& m,
                 const geo::GeoDictionary& dict) {
  std::ofstream out(path);
  core::save_conventions(out, m, dict);
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// A Server on an ephemeral loopback port, running in its own thread.
class LiveServer {
 public:
  explicit LiveServer(ModelStore& store, ServerConfig config = {}) : server_(store, config) {
    std::string error;
    started_ = server_.start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) thread_ = std::thread([this] { server_.run(); });
  }
  ~LiveServer() {
    if (started_) {
      server_.stop();
      thread_.join();
    }
  }
  Server& operator*() { return server_; }
  Server* operator->() { return &server_; }

 private:
  Server server_;
  bool started_ = false;
  std::thread thread_;
};

// --- protocol ----------------------------------------------------------------

TEST(Protocol, ParseRequestKinds) {
  EXPECT_EQ(parse_request("foo.he.net").kind, RequestKind::kLookup);
  EXPECT_EQ(parse_request("foo.he.net").hostname, "foo.he.net");
  EXPECT_EQ(parse_request("STATS").kind, RequestKind::kStats);
  EXPECT_EQ(parse_request("RELOAD").kind, RequestKind::kReload);
  EXPECT_EQ(parse_request("").kind, RequestKind::kEmpty);
  EXPECT_EQ(parse_request("\r").kind, RequestKind::kEmpty);
  EXPECT_EQ(parse_request("STATS\r").kind, RequestKind::kStats);
  // Verbs are case-sensitive; anything else is a hostname lookup.
  EXPECT_EQ(parse_request("stats").kind, RequestKind::kLookup);
}

TEST(Protocol, FormatAndClassify) {
  core::Geolocation g;
  g.coord = {38.96, -77.35};
  g.code = "ash";
  g.via_learned = true;
  EXPECT_EQ(format_hit(g), "38.9600,-77.3500,ash,learned");
  EXPECT_EQ(classify_response(format_hit(g)), ResponseKind::kHit);
  EXPECT_EQ(classify_response(format_miss()), ResponseKind::kMiss);
  EXPECT_EQ(classify_response(format_error("x")), ResponseKind::kError);
  EXPECT_EQ(classify_response(format_reload_ok(2, 5)), ResponseKind::kReload);
  EXPECT_EQ(classify_response(format_reload_error("nope")), ResponseKind::kReloadError);
  Metrics m;
  EXPECT_EQ(classify_response(format_stats(m.snapshot(), 1, 3)), ResponseKind::kStats);
}

TEST(Protocol, ParseGeoRequests) {
  const Request plain = parse_request("GEO e0.cr1.ash1.he.net");
  EXPECT_EQ(plain.kind, RequestKind::kGeo);
  EXPECT_EQ(plain.subject, "e0.cr1.ash1.he.net");
  EXPECT_FALSE(plain.has_claimed);
  EXPECT_TRUE(plain.error.empty());

  const Request claimed = parse_request("GEO 192.0.2.9 38.96,-77.35");
  EXPECT_EQ(claimed.kind, RequestKind::kGeo);
  EXPECT_EQ(claimed.subject, "192.0.2.9");
  ASSERT_TRUE(claimed.has_claimed);
  EXPECT_DOUBLE_EQ(claimed.claimed.lat, 38.96);
  EXPECT_DOUBLE_EQ(claimed.claimed.lon, -77.35);

  // Malformed arguments are named errors, not lookups.
  EXPECT_EQ(parse_request("GEO").error, "geo_usage");
  EXPECT_EQ(parse_request("GEO   ").error, "geo_usage");
  EXPECT_EQ(parse_request("GEO host nope").error, "bad_coordinate");
  EXPECT_EQ(parse_request("GEO host 38.96").error, "bad_coordinate");
  EXPECT_EQ(parse_request("GEO host 91.0,2.0").error, "bad_coordinate");
  EXPECT_EQ(parse_request("GEO host 91.0,2.0").kind, RequestKind::kGeo);
  // A longitude that is not finite, or off the globe, is no claim either.
  EXPECT_EQ(parse_request("GEO host 38.96,inf").error, "bad_coordinate");
  EXPECT_EQ(parse_request("GEO host 38.96,nan").error, "bad_coordinate");
  EXPECT_EQ(parse_request("GEO host 38.96,-infinity").error, "bad_coordinate");
  EXPECT_EQ(parse_request("GEO host 38.96,500").error, "bad_coordinate");
}

TEST(Protocol, UnknownVerbsAreNamedErrorsNotLookups) {
  // Any spaced line whose head is not a known verb, and any spaceless
  // verb-shaped token, answers ERR,unknown_verb instead of a MISS.
  EXPECT_EQ(parse_request("FROBNICATE foo.he.net").kind, RequestKind::kUnknownVerb);
  EXPECT_EQ(parse_request("FLUSH").kind, RequestKind::kUnknownVerb);
  EXPECT_EQ(parse_request("STATS3").kind, RequestKind::kUnknownVerb);
  // Dotted names stay lookups no matter their case; lowercase words too.
  EXPECT_EQ(parse_request("FLUSH.example.net").kind, RequestKind::kLookup);
  EXPECT_EQ(parse_request("flush").kind, RequestKind::kLookup);
}

TEST(Protocol, FormatGeoAndClassify) {
  fuse::FuseResult result;
  EXPECT_EQ(format_geo(result), "GEO,miss");
  EXPECT_EQ(classify_response("GEO,miss"), ResponseKind::kGeo);

  fuse::Verdict v;
  v.coord = {38.96, -77.35};
  v.source = fuse::Source::kDictionary;
  v.score = 0.75;
  result.verdicts.push_back(v);
  result.set.code = "ash";
  fuse::Candidate c;
  c.feasible = true;
  result.set.candidates.push_back(c);
  c.feasible = false;
  result.set.candidates.push_back(c);
  EXPECT_EQ(format_geo(result),
            "GEO,38.9600,-77.3500,ash,dictionary,0.750,candidates=2,feasible=1");
  EXPECT_EQ(format_geo(result, fuse::AuditOutcome::kRefute),
            "GEO,38.9600,-77.3500,ash,dictionary,0.750,candidates=2,feasible=1,"
            "audit=refute");
  EXPECT_EQ(classify_response(format_geo(result)), ResponseKind::kGeo);
  EXPECT_EQ(classify_response(format_error("unknown_verb")), ResponseKind::kError);
}

TEST(Protocol, ParseAndFormatGensRollback) {
  EXPECT_EQ(parse_request("GENS").kind, RequestKind::kGens);
  EXPECT_EQ(parse_request("GENS\r").kind, RequestKind::kGens);

  const Request rb = parse_request("ROLLBACK 7");
  EXPECT_EQ(rb.kind, RequestKind::kRollback);
  EXPECT_TRUE(rb.error.empty());
  EXPECT_EQ(rb.rollback_gen, 7u);
  EXPECT_EQ(parse_request("ROLLBACK  12 ").rollback_gen, 12u);

  // Missing/non-numeric generations are named usage errors, not lookups.
  EXPECT_EQ(parse_request("ROLLBACK").error, "rollback_usage");
  EXPECT_EQ(parse_request("ROLLBACK ").error, "rollback_usage");
  EXPECT_EQ(parse_request("ROLLBACK seven").error, "rollback_usage");
  EXPECT_EQ(parse_request("ROLLBACK -1").error, "rollback_usage");
  // 2^64 + 1 overflows: rejected, not wrapped around to generation 1.
  EXPECT_EQ(parse_request("ROLLBACK 18446744073709551617").error, "rollback_usage");
  EXPECT_EQ(parse_request("ROLLBACK 18446744073709551615").rollback_gen,
            18446744073709551615u);

  EXPECT_EQ(format_gens(3, {}), "GENS,serving=3,archived=-");
  EXPECT_EQ(format_gens(3, {1, 2, 3}), "GENS,serving=3,archived=1;2;3");
  EXPECT_EQ(format_rollback_ok(4, 2, 9), "ROLLBACK,ok,generation=4,from=2,conventions=9");
  EXPECT_EQ(format_rollback_error("nope"), "ROLLBACK,error,nope");
  EXPECT_EQ(classify_response(format_gens(3, {1})), ResponseKind::kGens);
  EXPECT_EQ(classify_response(format_rollback_ok(4, 2, 9)), ResponseKind::kRollback);
  EXPECT_EQ(classify_response(format_rollback_error("x")), ResponseKind::kRollbackError);
}

// --- ModelStore --------------------------------------------------------------

TEST(ModelStore, InstallPublishesNewGeneration) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  EXPECT_EQ(store.current()->generation, 0u);  // empty initial snapshot
  store.install(he_net_model(dict));
  const auto snap = store.current();
  EXPECT_EQ(snap->generation, 1u);
  EXPECT_EQ(snap->convention_count, 1u);
  EXPECT_TRUE(snap->geolocator.locate("e0.cr1.ash1.he.net").has_value());
}

TEST(ModelStore, ReloadFromFileAndKeepOldOnFailure) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("store_model.txt");
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  EXPECT_FALSE(store.reload().has_value());
  const auto good = store.current();
  EXPECT_EQ(good->convention_count, 1u);

  {
    std::ofstream out(path);
    out << "Z,bogus\n";  // unknown record type
  }
  const auto err = store.reload();
  EXPECT_TRUE(err.has_value());
  // Old snapshot still serves.
  EXPECT_EQ(store.current().get(), good.get());
  EXPECT_TRUE(store.current()->geolocator.locate("e0.cr1.ash1.he.net").has_value());
}

TEST(ModelStore, SnapshotOutlivesSwap) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  const auto pinned = store.current();
  store.install(zayo_model(dict));
  // The pinned snapshot still answers with the old model.
  EXPECT_TRUE(pinned->geolocator.locate("e0.cr1.ash1.he.net").has_value());
  // The current one answers with the new model only.
  EXPECT_FALSE(store.current()->geolocator.locate("e0.cr1.ash1.he.net").has_value());
  EXPECT_TRUE(store.current()->geolocator.locate("lhr1.zayo.com").has_value());
}

// --- lineage, canary & rollback (DESIGN.md §14) ------------------------------

// Removes a model path's generation archive so reruns start clean.
void wipe_gens(const std::string& model_path) {
  const std::string dir = model_path + ".gens";
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) ::unlink((dir + "/" + e->d_name).c_str());
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

TEST(ModelStore, ArchivesGenerationsAndPrunesPastKeep) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("lineage_model.txt");
  wipe_gens(path);
  // A generation number past 2^64-1 is not an archive entry: it must not
  // wrap into a listed generation or push the next publish past it.
  const std::string overflow = path + ".gens/gen-99999999999999999999.nc";
  ::mkdir((path + ".gens").c_str(), 0755);
  write_model(overflow, he_net_model(dict), dict);
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  store.set_keep_generations(2);

  ASSERT_FALSE(store.reload().has_value());  // gen 1
  write_model(path, zayo_model(dict), dict);
  ASSERT_FALSE(store.reload().has_value());  // gen 2
  write_model(path, he_net_model(dict), dict);
  ASSERT_FALSE(store.reload().has_value());  // gen 3; gen 1 pruned
  EXPECT_EQ(store.generation(), 3u);
  EXPECT_EQ(store.list_generations(), (std::vector<std::uint64_t>{2, 3}));
  std::remove(overflow.c_str());
}

TEST(ModelStore, GenerationNumbersSurviveRestart) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("restart_model.txt");
  wipe_gens(path);
  write_model(path, he_net_model(dict), dict);
  {
    ModelStore store(dict, path);
    store.set_keep_generations(4);
    ASSERT_FALSE(store.reload().has_value());  // gen 1
    ASSERT_FALSE(store.reload().has_value());  // gen 2
  }
  // A fresh store rescans the archive: new generations continue past the
  // archived maximum instead of reusing (and clobbering) old numbers.
  ModelStore store(dict, path);
  store.set_keep_generations(4);
  ASSERT_FALSE(store.reload().has_value());
  EXPECT_EQ(store.generation(), 3u);
  EXPECT_EQ(store.list_generations(), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(ModelStore, RollbackRepublishesAnArchivedGeneration) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("rollback_model.txt");
  wipe_gens(path);
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  store.set_keep_generations(4);
  ASSERT_FALSE(store.reload().has_value());  // gen 1: he.net
  write_model(path, zayo_model(dict), dict);
  ASSERT_FALSE(store.reload().has_value());  // gen 2: zayo
  ASSERT_FALSE(store.current()->geolocator.locate("e0.cr1.ash1.he.net").has_value());

  std::uint64_t published = 0;
  EXPECT_FALSE(store.rollback(1, &published).has_value());
  // Lineage is append-only: the old model comes back under a NEW number, so
  // GENS history never lies about what served when.
  EXPECT_EQ(published, 3u);
  EXPECT_EQ(store.generation(), 3u);
  EXPECT_TRUE(store.current()->geolocator.locate("e0.cr1.ash1.he.net").has_value());
  EXPECT_EQ(store.list_generations(), (std::vector<std::uint64_t>{1, 2, 3}));

  // Unknown generation: a named error, nothing published.
  const auto err = store.rollback(42);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("not in the archive"), std::string::npos) << *err;
  EXPECT_EQ(store.generation(), 3u);
}

TEST(ModelStore, RollbackRequiresAnArchive) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("noarchive_model.txt");
  wipe_gens(path);
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  ASSERT_FALSE(store.reload().has_value());
  const auto err = store.rollback(1);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("keep-generations"), std::string::npos) << *err;
}

TEST(ModelStore, CanaryGateRejectsDivergingReload) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("canary_model.txt");
  const std::string canary = temp_path("canary_queries.txt");
  wipe_gens(path);
  {
    core::Geolocator check(dict);
    for (const core::StoredConvention& sc : he_net_model(dict)) check.add(sc.nc);
    const auto lhr = check.locate("e0.cr1.lhr1.he.net");
    ASSERT_TRUE(lhr.has_value());
    std::ofstream out(canary);
    out << "# pinned queries: the ash deviation must keep answering\n";
    out << "e0.cr1.ash1.he.net\n";                             // any non-MISS
    out << "e0.cr1.lhr1.he.net," << format_hit(*lhr) << "\n";  // exact answer
  }
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  store.set_canary(canary);
  ASSERT_FALSE(store.reload().has_value());  // he.net passes its own canary

  // A model that breaks the pinned queries must not publish.
  write_model(path, zayo_model(dict), dict);
  const auto err = store.reload();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("canary rejected"), std::string::npos) << *err;
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_TRUE(store.current()->geolocator.locate("e0.cr1.ash1.he.net").has_value());

  // Restoring a passing model publishes again.
  write_model(path, he_net_model(dict), dict);
  EXPECT_FALSE(store.reload().has_value());
  EXPECT_EQ(store.generation(), 2u);
}

TEST(ModelStore, CanaryFailsClosed) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("canary_closed_model.txt");
  wipe_gens(path);
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  // Unreadable canary: every reload is rejected rather than unguarded.
  store.set_canary(temp_path("no_such_canary.txt"));
  const auto err = store.reload();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("failing closed"), std::string::npos) << *err;
  EXPECT_EQ(store.generation(), 0u);
}

TEST(ModelStore, RollbackBypassesTheCanary) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("canary_rollback_model.txt");
  const std::string canary = temp_path("canary_rollback_queries.txt");
  wipe_gens(path);
  { std::ofstream out(canary); out << "lhr1.zayo.com\n"; }
  write_model(path, zayo_model(dict), dict);
  ModelStore store(dict, path);
  store.set_keep_generations(4);
  ASSERT_FALSE(store.reload().has_value());  // gen 1: zayo
  write_model(path, he_net_model(dict), dict);
  ASSERT_FALSE(store.reload().has_value());  // gen 2: he.net
  store.set_canary(canary);
  // he.net fails the zayo canary, but ROLLBACK is the operator's explicit
  // escape hatch — it must not be vetoed by the very gate being escaped.
  std::uint64_t published = 0;
  EXPECT_FALSE(store.rollback(2, &published).has_value());
  EXPECT_EQ(published, 3u);
  EXPECT_TRUE(store.current()->geolocator.locate("e0.cr1.ash1.he.net").has_value());
}

// --- Server ------------------------------------------------------------------

TEST(Server, LookupStatsAndMiss) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  LiveServer server(store);

  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());

  const auto hit = client->request("e0.cr1.ash1.he.net");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(classify_response(*hit), ResponseKind::kHit);
  EXPECT_NE(hit->find("ash,learned"), std::string::npos);

  const auto dict_hit = client->request("e0.cr1.lhr1.he.net");
  ASSERT_TRUE(dict_hit.has_value());
  EXPECT_NE(dict_hit->find("lhr,dictionary"), std::string::npos);

  const auto miss = client->request("unknown.example.org");
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(*miss, "MISS");

  const auto empty = client->request("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(classify_response(*empty), ResponseKind::kError);

  const auto stats = client->request("STATS");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(classify_response(*stats), ResponseKind::kStats);
  EXPECT_NE(stats->find("requests=3"), std::string::npos);
  EXPECT_NE(stats->find("hits=2"), std::string::npos);
  EXPECT_NE(stats->find("misses=1"), std::string::npos);
  EXPECT_NE(stats->find("errors=1"), std::string::npos);
  EXPECT_NE(stats->find("conventions=1"), std::string::npos);
}

TEST(Server, PipelinedResponsesArriveInOrder) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  ServerConfig config;
  config.max_batch = 8;  // force many batches per burst
  LiveServer server(store, config);

  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());

  // Alternate two requests with distinguishable answers across a burst far
  // larger than one batch, so reordering across workers would be visible.
  std::vector<std::string> requests;
  for (int i = 0; i < 500; ++i)
    requests.push_back(i % 2 == 0 ? "e0.ash1.he.net" : "e0.lhr1.he.net");
  ASSERT_TRUE(client->send_lines(requests));
  for (int i = 0; i < 500; ++i) {
    const auto resp = client->read_line();
    ASSERT_TRUE(resp.has_value()) << "response " << i;
    const char* expected = i % 2 == 0 ? "ash,learned" : "lhr,dictionary";
    EXPECT_NE(resp->find(expected), std::string::npos)
        << "response " << i << " out of order: " << *resp;
  }
}

TEST(Server, ReloadSwapsModelWithoutDroppingConnections) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("reload_model.txt");
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  ASSERT_FALSE(store.reload().has_value());
  LiveServer server(store);

  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(classify_response(*client->request("e0.ash1.he.net")), ResponseKind::kHit);

  // Swap the file for a different operator's model and RELOAD in-band.
  write_model(path, zayo_model(dict), dict);
  const auto reload = client->request("RELOAD");
  ASSERT_TRUE(reload.has_value());
  EXPECT_EQ(classify_response(*reload), ResponseKind::kReload) << *reload;

  // Same connection, new model: he.net now misses, zayo.com hits.
  EXPECT_EQ(*client->request("e0.ash1.he.net"), "MISS");
  EXPECT_EQ(classify_response(*client->request("lhr1.zayo.com")), ResponseKind::kHit);

  // A botched model keeps the old one serving.
  { std::ofstream out(path); out << "S,zayo.com\n"; }  // wrong arity
  const auto bad = client->request("RELOAD");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(classify_response(*bad), ResponseKind::kReloadError) << *bad;
  EXPECT_EQ(classify_response(*client->request("lhr1.zayo.com")), ResponseKind::kHit);
}

TEST(Server, OversizedLineIsRejected) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  ServerConfig config;
  config.max_line = 128;
  LiveServer server(store, config);

  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());
  const std::string huge(4096, 'a');  // no newline until way past max_line
  ASSERT_TRUE(client->send_line(huge));
  const auto resp = client->read_line();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(classify_response(*resp), ResponseKind::kError);
  // Server closes the connection after the error.
  EXPECT_FALSE(client->read_line().has_value());
}

TEST(Server, ManyConnections) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  LiveServer server(store);

  std::vector<Client> clients;
  for (int i = 0; i < 20; ++i) {
    auto c = Client::connect("127.0.0.1", server->port());
    ASSERT_TRUE(c.has_value()) << i;
    clients.push_back(std::move(*c));
  }
  for (Client& c : clients) {
    const auto resp = c.request("e0.cr1.ash1.he.net");
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(classify_response(*resp), ResponseKind::kHit);
  }
  const auto stats = clients[0].request("STATS");
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("connections_opened=20"), std::string::npos) << *stats;
}

TEST(Server, GeoVerbAnswersFromSnapshotFuseContext) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const geo::LocationId ash = find_city(dict, "Ashburn", "us", "va");
  ASSERT_NE(ash, geo::kInvalidLocation);

  ModelStore store(dict);
  store.install(he_net_model(dict));
  // Without a fuse context the verb still answers (extraction-only).
  LiveServer server(store);
  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());
  const auto bare = client->request("GEO e0.cr1.ash1.he.net");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(classify_response(*bare), ResponseKind::kGeo) << *bare;
  EXPECT_NE(bare->find(",ash,"), std::string::npos) << *bare;

  // Arm measurements: one VP at Ashburn pins router 0 there; the address
  // subject resolves through the context to the router's hostname.
  const std::vector<fuse::SubjectRow> subjects = {
      {"e0.cr1.ash1.he.net", 0, ""},
      {"192.0.2.9", 0, "e0.cr1.ash1.he.net"},
  };
  measure::Measurements meas({measure::VantagePoint{"iad", "us", dict.location(ash).coord}},
                             1);
  meas.pings.record(0, 0, 2.0);
  store.set_fuse_context(fuse::FuseContext::build(subjects, std::move(meas), dict));

  const auto by_addr = client->request("GEO 192.0.2.9");
  ASSERT_TRUE(by_addr.has_value());
  EXPECT_EQ(classify_response(*by_addr), ResponseKind::kGeo) << *by_addr;
  EXPECT_NE(by_addr->find(",ash,"), std::string::npos) << *by_addr;

  // A claim at the true location agrees; a claim an ocean away is refuted
  // by the RTT evidence.
  const std::string true_claim = util::fmt_double(dict.location(ash).coord.lat, 4) + "," +
                                 util::fmt_double(dict.location(ash).coord.lon, 4);
  const auto agree = client->request("GEO e0.cr1.ash1.he.net " + true_claim);
  ASSERT_TRUE(agree.has_value());
  EXPECT_NE(agree->find("audit=agree"), std::string::npos) << *agree;

  const auto refute = client->request("GEO e0.cr1.ash1.he.net 51.51,-0.13");
  ASSERT_TRUE(refute.has_value());
  EXPECT_NE(refute->find("audit=refute"), std::string::npos) << *refute;

  // No convention, no measurement: a miss, not an error.
  const auto miss = client->request("GEO unknown.example.org");
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(*miss, "GEO,miss");

  // Malformed GEO arguments and unknown verbs answer named errors in-band.
  EXPECT_EQ(*client->request("GEO"), "ERR,geo_usage");
  EXPECT_EQ(*client->request("GEO host 99.0,0.0"), "ERR,bad_coordinate");
  EXPECT_EQ(*client->request("FLUSH"), "ERR,unknown_verb");
  EXPECT_EQ(*client->request("FROBNICATE e0.cr1.ash1.he.net"), "ERR,unknown_verb");
}

TEST(Server, GensAndRollbackVerbsEndToEnd) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("serve_rollback_model.txt");
  wipe_gens(path);
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  store.set_keep_generations(4);
  ASSERT_FALSE(store.reload().has_value());  // gen 1: he.net
  LiveServer server(store);
  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());

  const auto gens1 = client->request("GENS");
  ASSERT_TRUE(gens1.has_value());
  EXPECT_EQ(*gens1, "GENS,serving=1,archived=1");

  // Deploy a bad-for-he.net model, then roll it back in-band.
  write_model(path, zayo_model(dict), dict);
  ASSERT_EQ(classify_response(*client->request("RELOAD")), ResponseKind::kReload);
  EXPECT_EQ(*client->request("e0.cr1.ash1.he.net"), "MISS");

  const auto rb = client->request("ROLLBACK 1");
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(*rb, "ROLLBACK,ok,generation=3,from=1,conventions=1");
  EXPECT_EQ(classify_response(*client->request("e0.cr1.ash1.he.net")), ResponseKind::kHit);

  const auto gens2 = client->request("GENS");
  ASSERT_TRUE(gens2.has_value());
  EXPECT_EQ(*gens2, "GENS,serving=3,archived=1;2;3");

  // Failure shapes stay in-band and leave the serving model alone.
  EXPECT_EQ(classify_response(*client->request("ROLLBACK 42")),
            ResponseKind::kRollbackError);
  EXPECT_EQ(*client->request("ROLLBACK zero"), "ERR,rollback_usage");
  EXPECT_EQ(classify_response(*client->request("e0.cr1.ash1.he.net")), ResponseKind::kHit);
  EXPECT_EQ(server->metrics().rollbacks.load(), 1u);
}

TEST(Protocol, ParseGeobRequests) {
  const Request ok = parse_request("GEOB 3");
  EXPECT_EQ(ok.kind, RequestKind::kGeoBatch);
  EXPECT_TRUE(ok.error.empty());
  EXPECT_EQ(ok.geob_count, 3u);
  EXPECT_EQ(parse_geob_count("GEOB 3"), std::optional<std::size_t>(3));

  // Usage errors: missing, zero, non-numeric, over-cap counts. The framing
  // probe returns nullopt for all of them — a malformed header must be
  // answered without consuming subject lines.
  for (const char* bad : {"GEOB", "GEOB 0", "GEOB abc", "GEOB -1",
                          "GEOB 1025" /* kMaxGeobBatch + 1 */,
                          "GEOB 18446744073709551617" /* 2^64 + 1, not 1 */}) {
    const Request r = parse_request(bad);
    EXPECT_EQ(r.kind, RequestKind::kGeoBatch) << bad;
    EXPECT_EQ(r.error, "geob_usage") << bad;
    EXPECT_FALSE(parse_geob_count(bad).has_value()) << bad;
  }
  EXPECT_EQ(parse_geob_count("GEOB 1024"), std::optional<std::size_t>(kMaxGeobBatch));

  EXPECT_EQ(format_geob_header(7), "GEOB,7");
  EXPECT_EQ(classify_response("GEOB,7"), ResponseKind::kGeoBatch);
}

TEST(Protocol, ParseDeltaRequests) {
  const Request ok = parse_request("DELTA /tmp/model.delta");
  EXPECT_EQ(ok.kind, RequestKind::kDelta);
  EXPECT_TRUE(ok.error.empty());
  EXPECT_EQ(ok.path, "/tmp/model.delta");

  const Request missing = parse_request("DELTA");
  EXPECT_EQ(missing.kind, RequestKind::kDelta);
  EXPECT_EQ(missing.error, "delta_usage");

  EXPECT_EQ(format_delta_ok(5, 4, 3, 1, 42),
            "DELTA,ok,generation=5,from=4,upserts=3,removes=1,conventions=42");
  EXPECT_EQ(classify_response(format_delta_ok(5, 4, 3, 1, 42)), ResponseKind::kDelta);
  EXPECT_EQ(format_delta_error("stale"), "DELTA,error,stale");
  EXPECT_EQ(classify_response("DELTA,error,stale"), ResponseKind::kDeltaError);
}

TEST(Server, GeobBatchAnswersInSubjectOrder) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  LiveServer server(store);
  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());

  std::string error;
  const auto lines = client->geolocate_batch(
      {"e0.cr1.ash1.he.net", "unknown.example.org", "e0.cr1.lhr1.he.net"}, &error);
  ASSERT_TRUE(lines.has_value()) << error;
  ASSERT_EQ(lines->size(), 3u);
  EXPECT_EQ(classify_response((*lines)[0]), ResponseKind::kGeo) << (*lines)[0];
  EXPECT_NE((*lines)[0].find(",ash,"), std::string::npos) << (*lines)[0];
  EXPECT_EQ((*lines)[1], "GEO,miss");
  EXPECT_NE((*lines)[2].find(",lhr,"), std::string::npos) << (*lines)[2];

  // The batch counters saw one batch of three subjects.
  EXPECT_EQ(server->metrics().geob_batches.load(), 1u);
  EXPECT_EQ(server->metrics().geob_subjects.load(), 3u);

  // The connection stays usable for singles after a batch.
  EXPECT_EQ(classify_response(*client->request("e0.cr1.ash1.he.net")),
            ResponseKind::kHit);

  // An over-cap header is a named in-band error, not a framing stall.
  std::vector<std::string_view> too_many(kMaxGeobBatch + 1, "x.example.org");
  const auto rejected = client->geolocate_batch(too_many, &error);
  EXPECT_FALSE(rejected.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Server, DeltaVerbAppliesRejectsStaleAndMissing) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  LiveServer server(store);
  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());

  // A delta against the serving generation: upsert zayo.com alongside the
  // installed he.net convention.
  const std::string delta_path = temp_path("serve_delta_file.txt");
  core::ModelDelta delta;
  delta.base_generation = store.generation();
  delta.upserts = zayo_model(dict);
  std::string error;
  ASSERT_TRUE(core::save_model_delta_to_file(delta_path, delta, dict, &error)) << error;

  const auto ok = client->apply_delta(delta_path, &error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_EQ(classify_response(*ok), ResponseKind::kDelta) << *ok;
  EXPECT_NE(ok->find("upserts=1"), std::string::npos) << *ok;
  EXPECT_EQ(server->metrics().delta_applies.load(), 1u);

  // Both the base and the upserted convention now serve.
  EXPECT_EQ(classify_response(*client->request("e0.cr1.ash1.he.net")),
            ResponseKind::kHit);
  EXPECT_EQ(classify_response(*client->request("lhr1.zayo.com")), ResponseKind::kHit);

  // Replaying the same file targets a now-stale base generation.
  const auto stale = client->apply_delta(delta_path, &error);
  EXPECT_FALSE(stale.has_value());
  EXPECT_NE(error.find("generation"), std::string::npos) << error;
  EXPECT_EQ(server->metrics().delta_rejected.load(), 1u);

  // Missing file and missing argument are in-band errors too.
  EXPECT_FALSE(client->apply_delta(temp_path("no_such.delta"), &error).has_value());
  EXPECT_EQ(*client->request("DELTA"), "ERR,delta_usage");

  // The serving model was never disturbed by the failures.
  EXPECT_EQ(classify_response(*client->request("lhr1.zayo.com")), ResponseKind::kHit);
  std::remove(delta_path.c_str());
}

TEST(Server, CanaryRejectedReloadKeepsServingAndCounts) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("serve_canary_model.txt");
  const std::string canary = temp_path("serve_canary_queries.txt");
  wipe_gens(path);
  { std::ofstream out(canary); out << "e0.cr1.ash1.he.net\n"; }
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  store.set_canary(canary);
  ASSERT_FALSE(store.reload().has_value());
  LiveServer server(store);
  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());

  write_model(path, zayo_model(dict), dict);
  const auto bad = client->request("RELOAD");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(classify_response(*bad), ResponseKind::kReloadError) << *bad;
  EXPECT_NE(bad->find("canary rejected"), std::string::npos) << *bad;
  // The gated generation never serves a single query.
  EXPECT_EQ(classify_response(*client->request("e0.cr1.ash1.he.net")), ResponseKind::kHit);
  EXPECT_EQ(server->metrics().reload_rejected.load(), 1u);

  // The rejection surfaces in STATS2 (registry), not the frozen STATS v1.
  const auto stats2 = client->request("STATS2");
  ASSERT_TRUE(stats2.has_value());
  EXPECT_NE(stats2->find("serve_reload_rejected:c=1"), std::string::npos) << *stats2;
  const auto stats = client->request("STATS");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->find("reload_rejected"), std::string::npos) << *stats;
}

// --- fault tolerance (DESIGN.md §9) ------------------------------------------

// mtime on most filesystems ticks at jiffy granularity; back-to-back writes
// within one tick would compare equal and defeat the watch tests.
void let_mtime_tick() { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }

TEST(ModelStore, PollWatchDebouncesThenReloads) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("watch_model.txt");
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  using WO = ModelStore::WatchOutcome;

  // A new mtime must be seen twice before the reload happens.
  EXPECT_EQ(store.poll_watch(), WO::kDebounced);
  EXPECT_EQ(store.poll_watch(), WO::kReloaded);
  EXPECT_EQ(store.current()->convention_count, 1u);
  EXPECT_EQ(store.poll_watch(), WO::kUnchanged);
  EXPECT_EQ(store.poll_watch(), WO::kUnchanged);

  // A transiently missing file (mid-rename deploy) is not a failed reload.
  ASSERT_EQ(::unlink(path.c_str()), 0);
  EXPECT_EQ(store.poll_watch(), WO::kMissing);
  EXPECT_EQ(store.poll_watch(), WO::kMissing);
  EXPECT_TRUE(store.current()->geolocator.locate("e0.cr1.ash1.he.net").has_value());

  let_mtime_tick();
  write_model(path, zayo_model(dict), dict);
  EXPECT_EQ(store.poll_watch(), WO::kDebounced);
  EXPECT_EQ(store.poll_watch(), WO::kReloaded);
  EXPECT_TRUE(store.current()->geolocator.locate("lhr1.zayo.com").has_value());
}

TEST(ModelStore, PollWatchReportsCorruptModelOncePerChange) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("watch_corrupt.txt");
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  using WO = ModelStore::WatchOutcome;
  EXPECT_EQ(store.poll_watch(), WO::kDebounced);
  EXPECT_EQ(store.poll_watch(), WO::kReloaded);

  let_mtime_tick();
  { std::ofstream out(path); out << "Z,bogus\n"; }
  std::string error;
  EXPECT_EQ(store.poll_watch(&error), WO::kDebounced);
  EXPECT_EQ(store.poll_watch(&error), WO::kReloadFailed);
  EXPECT_FALSE(error.empty());
  // The failure is not re-reported every poll: the bad stamp was recorded.
  EXPECT_EQ(store.poll_watch(), WO::kUnchanged);
  // And the old model keeps serving throughout.
  EXPECT_TRUE(store.current()->geolocator.locate("e0.cr1.ash1.he.net").has_value());
}

TEST(ModelStore, PollDeltaWatchDebouncesAppliesAndReportsOncePerChange) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string delta_path = temp_path("watch_delta.txt");
  std::remove(delta_path.c_str());
  ModelStore store(dict);
  store.install(he_net_model(dict));  // gen 1
  store.set_delta_watch(delta_path);
  using WO = ModelStore::WatchOutcome;

  // Nothing dropped in yet: idle, not a failure.
  EXPECT_EQ(store.poll_delta_watch(), WO::kMissing);

  // A delta onto the serving generation holds still for one poll, then
  // publishes the successor.
  core::ModelDelta delta;
  delta.base_generation = store.generation();
  delta.upserts = zayo_model(dict);
  std::string error;
  ASSERT_TRUE(core::save_model_delta_to_file(delta_path, delta, dict, &error)) << error;
  EXPECT_EQ(store.poll_delta_watch(), WO::kDebounced);
  EXPECT_EQ(store.poll_delta_watch(&error), WO::kReloaded) << error;
  EXPECT_EQ(store.generation(), 2u);
  EXPECT_TRUE(store.current()->geolocator.locate("lhr1.zayo.com").has_value());
  EXPECT_EQ(store.poll_delta_watch(), WO::kUnchanged);

  // The same delta dropped in again is stale (its base is generation 1): it
  // fails once per file change, then the watch is idle.
  let_mtime_tick();
  ASSERT_TRUE(core::save_model_delta_to_file(delta_path, delta, dict, &error)) << error;
  EXPECT_EQ(store.poll_delta_watch(), WO::kDebounced);
  error.clear();
  EXPECT_EQ(store.poll_delta_watch(&error), WO::kReloadFailed);
  EXPECT_NE(error.find("generation"), std::string::npos) << error;
  EXPECT_EQ(store.poll_delta_watch(), WO::kUnchanged);
  EXPECT_EQ(store.generation(), 2u);

  // A torn delta (checksum footer cut off) never publishes either.
  let_mtime_tick();
  delta.base_generation = store.generation();
  const std::string bytes = core::serialize_model_delta(delta, dict);
  {
    std::ofstream out(delta_path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.rfind("# checksum"));
  }
  EXPECT_EQ(store.poll_delta_watch(), WO::kDebounced);
  error.clear();
  EXPECT_EQ(store.poll_delta_watch(&error), WO::kReloadFailed);
  EXPECT_NE(error.find("delta file"), std::string::npos) << error;
  EXPECT_EQ(store.poll_delta_watch(), WO::kUnchanged);

  // Neither failure disturbed the serving generation.
  EXPECT_EQ(store.generation(), 2u);
  EXPECT_TRUE(store.current()->geolocator.locate("lhr1.zayo.com").has_value());
  std::remove(delta_path.c_str());
}

TEST(ModelStore, ReloadFailpointInjectsFailure) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("fp_model.txt");
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  ASSERT_TRUE(util::failpoint::configure("store.reload", "error"));
  const auto err = store.reload();
  util::failpoint::reset();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("injected"), std::string::npos) << *err;
  EXPECT_FALSE(store.reload().has_value());  // disarmed: loads fine
}

TEST(ModelStore, ArchiveWriteFailureDoesNotBlockPublish) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = temp_path("archive_fail_model.txt");
  wipe_gens(path);
  write_model(path, he_net_model(dict), dict);
  ModelStore store(dict, path);
  store.set_keep_generations(2);
  // The archive write goes through the model-publish failpoint. It is best
  // effort: a failed write must not turn a healthy reload into a failure.
  ASSERT_TRUE(util::failpoint::configure("nc.save", "error"));
  const auto err = store.reload();
  util::failpoint::reset();
  EXPECT_FALSE(err.has_value()) << err.value_or("");
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_TRUE(store.current()->geolocator.locate("e0.cr1.ash1.he.net").has_value());
  EXPECT_TRUE(store.list_generations().empty());
}

TEST(Server, DeadlineExpiredBatchesAnswerErrDeadline) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  ServerConfig config;
  config.request_deadline_ms = 20;
  ASSERT_TRUE(util::failpoint::configure("serve.process", "delay:80"));
  LiveServer server(store, config);
  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());
  const auto resp = client->request("e0.cr1.ash1.he.net");
  util::failpoint::reset();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(*resp, "ERR,deadline");
  EXPECT_GE(server->metrics().deadline_expired.load(), 1u);
  EXPECT_GE(server->metrics().injected_faults.load(), 1u);
}

TEST(Server, ShedsAboveMaxInflight) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  ServerConfig config;
  config.workers = 2;
  config.max_inflight = 1;
  LiveServer server(store, config);
  // Connections 0 and 1 land on loops 0 and 1; a round trip on each makes
  // sure both are registered before a slow batch occupies a loop.
  auto slow = Client::connect("127.0.0.1", server->port());
  auto other = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(slow.has_value());
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(classify_response(*slow->request("e0.cr1.ash1.he.net")), ResponseKind::kHit);
  EXPECT_EQ(classify_response(*other->request("e0.cr1.ash1.he.net")), ResponseKind::kHit);
  // One slow batch holds the single inflight slot on one loop; a batch
  // read meanwhile on the other loop must shed.
  ASSERT_TRUE(util::failpoint::configure("serve.process", "delay:200,times=1"));
  EXPECT_TRUE(slow->send_line("e0.cr1.ash1.he.net"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto shed = other->request("e0.cr1.ash1.he.net");
  const auto held = slow->read_line();
  util::failpoint::reset();
  ASSERT_TRUE(shed.has_value());
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(*shed, "ERR,busy");
  EXPECT_EQ(classify_response(*held), ResponseKind::kHit) << *held;
  EXPECT_EQ(server->metrics().shed_busy.load(), 1u);
}

TEST(Server, ConnectionsOnDifferentLoopsAreAnsweredInParallel) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  ServerConfig config;
  config.workers = 2;
  LiveServer server(store, config);
  auto a = Client::connect("127.0.0.1", server->port());
  auto b = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(classify_response(*a->request("e0.cr1.ash1.he.net")), ResponseKind::kHit);
  EXPECT_EQ(classify_response(*b->request("e0.cr1.ash1.he.net")), ResponseKind::kHit);
  ASSERT_TRUE(util::failpoint::configure("serve.process", "delay:200"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(a->send_line("e0.cr1.ash1.he.net"));
  EXPECT_TRUE(b->send_line("e0.cr1.lhr1.he.net"));
  const auto ra = a->read_line();
  const auto rb = b->read_line();
  const auto waited = std::chrono::steady_clock::now() - start;
  util::failpoint::reset();
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_NE(ra->find("ash,learned"), std::string::npos) << *ra;
  EXPECT_NE(rb->find("lhr,dictionary"), std::string::npos) << *rb;
  // Connection k sits on loop k mod 2, so the two delays overlap: both
  // answers arrive after about one delay, not two back to back.
  EXPECT_GE(waited, std::chrono::milliseconds(200));
  EXPECT_LT(waited, std::chrono::milliseconds(360));
}

TEST(Server, WatchdogCountsEachStalledBatchOnce) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  for (const std::size_t loops : {1, 2}) {
    ModelStore store(dict);
    store.install(he_net_model(dict));
    ServerConfig config;
    config.workers = loops;
    config.worker_stall_ms = 50;
    config.tick_ms = 10;
    LiveServer server(store, config);
    std::vector<Client> clients;  // client k on loop k
    for (std::size_t k = 0; k < loops; ++k) {
      auto c = Client::connect("127.0.0.1", server->port());
      ASSERT_TRUE(c.has_value());
      EXPECT_EQ(classify_response(*c->request("e0.cr1.ash1.he.net")), ResponseKind::kHit);
      clients.push_back(std::move(*c));
    }
    // One delayed batch per loop, one after the other. Loop 1's is seen by
    // loop 0's tick scan while it runs and by loop 1 when it finishes;
    // loop 0's, and the only loop's, only by the loop itself.
    ASSERT_TRUE(util::failpoint::configure("serve.process", "delay:200"));
    std::vector<std::optional<std::string>> answers;
    for (Client& c : clients) answers.push_back(c.request("e0.cr1.ash1.he.net"));
    util::failpoint::reset();
    for (const auto& resp : answers) {
      ASSERT_TRUE(resp.has_value());
      EXPECT_EQ(classify_response(*resp), ResponseKind::kHit) << *resp;
    }
    EXPECT_EQ(server->metrics().worker_stalled.load(), loops) << loops << " loop(s)";
  }
}

TEST(Server, IdleConnectionsAreReaped) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  ServerConfig config;
  config.idle_timeout_ms = 50;
  LiveServer server(store, config);
  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());
  const auto resp = client->request("e0.cr1.ash1.he.net");
  ASSERT_TRUE(resp.has_value());
  // Stop talking; the server must close the connection from its side.
  EXPECT_FALSE(client->read_line().has_value());  // EOF from the reap
  EXPECT_GE(server->metrics().idle_closed.load(), 1u);
}

TEST(Server, GracefulDrainDeliversInFlightThenExits) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  ServerConfig config;
  config.drain_timeout_ms = 2000;
  // The in-flight batch sleeps in a worker while drain is requested.
  ASSERT_TRUE(util::failpoint::configure("serve.process", "delay:100,times=1"));
  LiveServer server(store, config);
  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(client->send_line("e0.cr1.ash1.he.net"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server->drain();
  // The in-flight answer still arrives, then the server closes the
  // connection and the run loop exits on its own.
  const auto resp = client->read_line();
  util::failpoint::reset();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(classify_response(*resp), ResponseKind::kHit) << *resp;
  EXPECT_FALSE(client->read_line().has_value());
  // New connections are refused once the listener is gone.
  for (int i = 0; i < 50; ++i) {
    if (!Client::connect("127.0.0.1", server->port()).has_value()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(Client::connect("127.0.0.1", server->port()).has_value());
}

TEST(Client, ConnectWithRetryGivesUpAfterMaxAttempts) {
  ClientOptions options;
  options.max_attempts = 2;
  options.backoff_initial_ms = 1;
  options.connect_timeout_ms = 500;
  std::string error;
  // Port 1 on loopback: nothing listens there in any sane environment.
  const auto client = Client::connect_with_retry("127.0.0.1", 1, options, &error);
  EXPECT_FALSE(client.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Client, ConnectWithRetryHonorsOverallDeadline) {
  ClientOptions options;
  options.max_attempts = 1000000;  // attempts would retry for ~forever
  options.backoff_initial_ms = 20;
  options.backoff_max_ms = 40;
  options.overall_deadline_ms = 150;
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  // Port 1 on loopback refuses instantly, so only the deadline can stop us.
  const auto client = Client::connect_with_retry("127.0.0.1", 1, options, &error);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(client.has_value());
  // Exhaustion reports the same "timed out" wording a single timed-out
  // connect uses, so callers match one string for both shapes.
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  EXPECT_GE(waited, std::chrono::milliseconds(100));
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(Client, ConnectWithRetrySurvivesLateServer) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  // Reserve a port, then bring the server up only after a delay while the
  // client is already retrying against it.
  ServerConfig config;
  std::unique_ptr<LiveServer> server;
  std::thread starter;
  {
    // Find a free port by binding and closing (small race, fine for tests).
    std::string error;
    util::Fd probe = util::listen_tcp(0, &error, false);
    ASSERT_TRUE(probe.valid()) << error;
    const auto port = util::local_port(probe.get());
    ASSERT_TRUE(port.has_value());
    config.port = *port;
    probe.reset();
    starter = std::thread([&server, &store, config]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      server = std::make_unique<LiveServer>(store, config);
    });
  }
  ClientOptions options;
  options.max_attempts = 40;
  options.backoff_initial_ms = 20;
  options.backoff_max_ms = 100;
  options.connect_timeout_ms = 500;
  std::string error;
  auto client = Client::connect_with_retry("127.0.0.1", config.port, options, &error);
  starter.join();
  ASSERT_TRUE(client.has_value()) << error;
  const auto resp = client->request("e0.cr1.ash1.he.net");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(classify_response(*resp), ResponseKind::kHit);
}

TEST(Client, ReadTimeoutIsDistinguishableFromEof) {
  // A listener that never accepts: the connect succeeds (backlog) but no
  // response ever comes, so the read must time out rather than hang.
  std::string error;
  util::Fd listener = util::listen_tcp(0, &error, false);
  ASSERT_TRUE(listener.valid()) << error;
  const auto port = util::local_port(listener.get());
  ASSERT_TRUE(port.has_value());
  ClientOptions options;
  options.io_timeout_ms = 50;
  auto client = Client::connect("127.0.0.1", *port, &error, options);
  ASSERT_TRUE(client.has_value()) << error;
  ASSERT_TRUE(client->send_line("hello?"));
  const auto start = std::chrono::steady_clock::now();
  const auto resp = client->read_line();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(resp.has_value());
  EXPECT_TRUE(client->timed_out());
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(Server, InjectedAcceptFailureIsTransient) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ModelStore store(dict);
  store.install(he_net_model(dict));
  ASSERT_TRUE(util::failpoint::configure("serve.accept", "error:EMFILE,times=2"));
  LiveServer server(store);
  // The first accepts are injected failures; the connection stays in the
  // backlog and is accepted once the failpoint is exhausted.
  auto client = Client::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());
  const auto resp = client->request("e0.cr1.ash1.he.net");
  util::failpoint::reset();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(classify_response(*resp), ResponseKind::kHit);
  EXPECT_GE(server->metrics().injected_faults.load(), 2u);
}

}  // namespace
}  // namespace hoiho::serve
