// Fusion evaluation (DESIGN.md §13): does NC extraction x RTT feasibility x
// population prior beat extraction alone, and does the feed auditor catch
// injected-wrong rows?
//
// The world is deliberately adversarial for hostname-only geolocation:
//   * ambiguous_operator_rate deploys city-name operators at "loser"
//     namesakes (the melbourne-FL / melbourne-AU problem) so extraction
//     systematically resolves their routers to the famous sibling;
//   * anycast_rate garbles a sliver of the RTT campaign, so fusion must
//     tolerate measurements that describe the wrong city.
//
// Methods compared over the hostname-answerable truth rows (the paper's
// 40 km correctness rule): hostname-only (core::Geolocator), fused
// (fuse::Fuser), and the delay/rules baselines (shortest-ping, CBG, undns).
// Then a claimed-location feed with a known fraction of injected-wrong rows
// runs through fuse::Auditor.
//
// Emits BENCH_FUSION.json (registry snapshot embedded under "registry" —
// CI's schema guard keys on the fuse_* / audit_* counters). Exit code 0 iff
//   * fused top-1 accuracy strictly beats hostname-only, and
//   * the auditor refutes >= 90% of the injected-wrong rows, and
//   * the audit accounting is exact (rows == agree + refute + unknown,
//     and the registry counters match the summary).
//
// Run: ./build/bench/fusion_eval [--json PATH] [--operators N]
//      [--ambiguous-rate X] [--anycast-rate X] [--feed-rows N]

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/cbg.h"
#include "baselines/shortest_ping.h"
#include "baselines/undns.h"
#include "common.h"
#include "dns/hostname.h"
#include "fuse/audit.h"
#include "geo/coord.h"
#include "sim/probing.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace hoiho;

namespace {

struct Tally {
  std::size_t answered = 0;
  std::size_t correct = 0;

  double accuracy(std::size_t denom) const {
    return denom == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(denom);
  }
};

void score(Tally& t, bool answered, bool correct) {
  if (answered) ++t.answered;
  if (correct) ++t.correct;
}

std::string tally_json(const Tally& t, std::size_t denom) {
  return "{\"answered\": " + std::to_string(t.answered) +
         ", \"correct\": " + std::to_string(t.correct) +
         ", \"accuracy\": " + util::fmt_double(t.accuracy(denom), 4) + "}";
}

int usage() {
  std::fprintf(stderr, "usage: fusion_eval [--json PATH] [--operators N] [--ambiguous-rate X] "
                       "[--anycast-rate X] [--feed-rows N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_FUSION.json";
  std::size_t operators = 72;
  double ambiguous_rate = 0.55;
  double anycast_rate = 0.02;
  std::size_t feed_rows = 2000;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 == argc) {
      std::fprintf(stderr, "fusion_eval: %s needs a value\n", argv[i]);
      return usage();
    }
    const std::string v = argv[++i];
    // Numbers are whole tokens: "7x" or "abc" is refused, never read as 7 or 0.
    const auto count = [&](std::size_t& out) {
      const auto n = util::parse_u64(v);
      if (n) out = static_cast<std::size_t>(*n);
      return n.has_value();
    };
    const auto real = [&](double& out) {
      const auto x = util::parse_double(v);
      if (x) out = *x;
      return x.has_value();
    };
    bool number = true;
    if (arg == "--json") {
      json_path = v;
    } else if (arg == "--operators") {
      number = count(operators);
    } else if (arg == "--ambiguous-rate") {
      number = real(ambiguous_rate);
    } else if (arg == "--anycast-rate") {
      number = real(anycast_rate);
    } else if (arg == "--feed-rows") {
      number = count(feed_rows);
    } else {
      std::fprintf(stderr, "fusion_eval: unknown flag '%s'\n", argv[i - 1]);
      return usage();
    }
    if (!number) {
      std::fprintf(stderr, "fusion_eval: %s: '%s' is not a number\n", argv[i - 1], v.c_str());
      return usage();
    }
  }

  const geo::GeoDictionary& dict = geo::builtin_dictionary();

  // The adversarial world: geohint-dense, city-name-heavy (ambiguity needs
  // city names), with the misleading-namesake knob turned well up.
  sim::WorldConfig wc;
  wc.seed = 20260807;
  wc.operators = operators;
  wc.geohint_scheme_rate = 0.85;
  wc.w_iata = 0.25;
  wc.w_city = 0.60;
  wc.w_clli = 0.12;
  wc.w_locode = 0.02;
  wc.w_facility = 0.01;
  wc.ambiguous_operator_rate = ambiguous_rate;
  const sim::World world = sim::generate_world(dict, wc);

  sim::PingConfig pc;
  pc.anycast_rate = anycast_rate;
  measure::Measurements pings = sim::probe_pings(world, pc);

  // Learn conventions, then stand up the two sides of the comparison: the
  // hostname-only Geolocator and the fused context over the same model.
  const core::HoihoResult result = bench::run_hoiho(world, pings);
  core::Geolocator geolocator(dict);
  std::size_t usable = 0;
  for (const core::SuffixResult& sr : result.suffixes) {
    if (!sr.usable()) continue;
    geolocator.add(sr.nc, sr.cls);
    ++usable;
  }
  const baselines::Undns undns = baselines::Undns::from_world(world);
  const auto ctx = fuse::FuseContext::build(world.topology, std::move(pings), dict);
  const measure::Measurements& meas = ctx->measurements();

  obs::Registry registry;
  const fuse::Fuser fuser(geolocator, ctx.get(), {}, fuse::FuseMetrics(registry));

  // Method comparison over the hostname-answerable geohint rows.
  Tally hostname_only, fused, sping, cbg, undns_t;
  std::size_t denom = 0;
  std::vector<const sim::HostnameTruth*> answerable;
  for (const sim::HostnameTruth& truth : world.truths) {
    if (!truth.has_geohint) continue;
    const auto host_loc = geolocator.locate(truth.hostname);
    if (!host_loc) continue;  // same denominator for every method
    ++denom;
    answerable.push_back(&truth);
    const geo::LocationId true_loc = world.topology.router(truth.router).true_location;
    const geo::Coordinate& true_coord = dict.location(true_loc).coord;

    score(hostname_only, true,
          bench::within_correct_distance(dict, host_loc->location, true_loc));

    const fuse::FuseResult fr = fuser.fuse(truth.hostname);
    score(fused, fr.answered(),
          fr.answered() &&
              geo::distance_km(fr.best().coord, true_coord) <= bench::kCorrectKm);

    const auto sp = baselines::shortest_ping(meas, truth.router);
    score(sping, sp.has_value(),
          sp && geo::distance_km(sp->coord, true_coord) <= bench::kCorrectKm);

    const auto cb = baselines::cbg_locate(meas, truth.router);
    score(cbg, cb.has_value(),
          cb && geo::distance_km(cb->estimate, true_coord) <= bench::kCorrectKm);

    std::optional<geo::LocationId> ud;
    std::string canonical;
    if (const auto parsed = dns::parse_hostname(truth.hostname, canonical))
      ud = undns.locate(*parsed);
    score(undns_t, ud.has_value(),
          ud && bench::within_correct_distance(dict, *ud, true_loc));
  }

  // The audit feed: answerable subjects claiming their true coordinates,
  // except every tenth row, which claims a far-away city (>= 1000 km) — the
  // injected-wrong rows the auditor must refute.
  util::Rng feed_rng(20260809);
  std::vector<fuse::FeedRow> feed;
  std::vector<bool> injected_wrong;
  for (const sim::HostnameTruth* truth : answerable) {
    if (feed.size() >= feed_rows) break;
    const geo::LocationId true_loc = world.topology.router(truth->router).true_location;
    const geo::Coordinate& true_coord = dict.location(true_loc).coord;
    fuse::FeedRow row;
    row.subject = truth->hostname;
    const bool wrong = feed.size() % 10 == 9;
    if (wrong) {
      geo::Coordinate far = true_coord;
      for (int attempt = 0; attempt < 64; ++attempt) {
        const geo::LocationId pick =
            static_cast<geo::LocationId>(feed_rng.next_below(dict.size()));
        const geo::Coordinate& c = dict.location(pick).coord;
        if (geo::distance_km(c, true_coord) >= 1000.0) {
          far = c;
          break;
        }
      }
      row.claimed = far;
    } else {
      row.claimed = true_coord;
    }
    injected_wrong.push_back(wrong);
    feed.push_back(std::move(row));
  }
  const fuse::Auditor auditor(geolocator, ctx.get(), {}, &registry);
  std::vector<fuse::AuditRow> audited;
  const fuse::AuditSummary summary = auditor.audit_feed(feed, &audited);
  std::size_t wrong_total = 0, wrong_refuted = 0, right_refuted = 0;
  for (std::size_t i = 0; i < audited.size(); ++i) {
    if (injected_wrong[i]) {
      ++wrong_total;
      if (audited[i].outcome == fuse::AuditOutcome::kRefute) ++wrong_refuted;
    } else if (audited[i].outcome == fuse::AuditOutcome::kRefute) {
      ++right_refuted;
    }
  }
  const double refute_rate =
      wrong_total == 0 ? 0.0
                       : static_cast<double>(wrong_refuted) / static_cast<double>(wrong_total);

  // Exact accounting: the summary, the rows, and the registry counters must
  // all tell the same story.
  const obs::Snapshot snap = registry.snapshot();
  const bool accounting_exact =
      summary.rows == feed.size() &&
      summary.rows == summary.agree + summary.refute + summary.unknown &&
      snap.value("audit_agree") == summary.agree &&
      snap.value("audit_refute") == summary.refute &&
      snap.value("audit_unknown") == summary.unknown;

  bench::print_table({
      {"method", "answered", "correct", "accuracy"},
      {"hostname_only", std::to_string(hostname_only.answered),
       std::to_string(hostname_only.correct),
       util::fmt_double(100.0 * hostname_only.accuracy(denom), 1) + "%"},
      {"fused", std::to_string(fused.answered), std::to_string(fused.correct),
       util::fmt_double(100.0 * fused.accuracy(denom), 1) + "%"},
      {"shortest_ping", std::to_string(sping.answered), std::to_string(sping.correct),
       util::fmt_double(100.0 * sping.accuracy(denom), 1) + "%"},
      {"cbg", std::to_string(cbg.answered), std::to_string(cbg.correct),
       util::fmt_double(100.0 * cbg.accuracy(denom), 1) + "%"},
      {"undns", std::to_string(undns_t.answered), std::to_string(undns_t.correct),
       util::fmt_double(100.0 * undns_t.accuracy(denom), 1) + "%"},
  });
  std::printf("fusion_eval: %zu answerable rows (%zu usable conventions), "
              "fused margin %+0.2f pts\n",
              denom, usable,
              100.0 * (fused.accuracy(denom) - hostname_only.accuracy(denom)));
  std::printf("fusion_eval: audit %zu rows: agree %zu, refute %zu, unknown %zu; "
              "injected-wrong refuted %zu/%zu (%.1f%%), false refutes %zu\n",
              summary.rows, summary.agree, summary.refute, summary.unknown,
              wrong_refuted, wrong_total, 100.0 * refute_rate, right_refuted);

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"fusion_eval\",\n"
       << "  \"world\": {\"operators\": " << operators
       << ", \"ambiguous_operator_rate\": " << util::fmt_double(ambiguous_rate, 3)
       << ", \"anycast_rate\": " << util::fmt_double(anycast_rate, 3)
       << ", \"answerable\": " << denom << ", \"usable_conventions\": " << usable
       << "},\n"
       << "  \"methods\": {\n"
       << "    \"hostname_only\": " << tally_json(hostname_only, denom) << ",\n"
       << "    \"fused\": " << tally_json(fused, denom) << ",\n"
       << "    \"shortest_ping\": " << tally_json(sping, denom) << ",\n"
       << "    \"cbg\": " << tally_json(cbg, denom) << ",\n"
       << "    \"undns\": " << tally_json(undns_t, denom) << "\n"
       << "  },\n"
       << "  \"fused_margin\": "
       << util::fmt_double(fused.accuracy(denom) - hostname_only.accuracy(denom), 4) << ",\n"
       << "  \"audit\": {\"rows\": " << summary.rows << ", \"agree\": " << summary.agree
       << ", \"refute\": " << summary.refute << ", \"unknown\": " << summary.unknown
       << ", \"injected_wrong\": " << wrong_total
       << ", \"injected_refuted\": " << wrong_refuted
       << ", \"refute_rate\": " << util::fmt_double(refute_rate, 4)
       << ", \"false_refutes\": " << right_refuted
       << ", \"accounting_exact\": " << (accounting_exact ? "true" : "false") << "},\n"
       << "  \"registry\": " << snap.to_json("  ") << "\n"
       << "}\n";
  std::printf("fusion_eval: wrote %s\n", json_path.c_str());

  const bool fused_wins = fused.correct > hostname_only.correct;
  const bool audit_ok = wrong_total > 0 && refute_rate >= 0.90;
  if (!fused_wins)
    std::fprintf(stderr, "fusion_eval: FAILED: fused (%zu) does not beat hostname-only "
                         "(%zu)\n",
                 fused.correct, hostname_only.correct);
  if (!audit_ok)
    std::fprintf(stderr, "fusion_eval: FAILED: refute rate %.1f%% < 90%%\n",
                 100.0 * refute_rate);
  if (!accounting_exact)
    std::fprintf(stderr, "fusion_eval: FAILED: audit accounting mismatch\n");
  return fused_wins && audit_ok && accounting_exact ? 0 : 1;
}
