#include "core/delta.h"

#include <algorithm>
#include <istream>
#include <sstream>
#include <unordered_map>

#include "io/load_report.h"
#include "util/csv.h"
#include "util/hash.h"
#include "util/strings.h"

namespace hoiho::core {

namespace {

std::uint64_t never_zero(std::uint64_t h) { return h == 0 ? 1 : h; }

}  // namespace

std::uint64_t suffix_fingerprint(const topo::SuffixGroup& group,
                                 const measure::Measurements& meas) {
  util::Fnv1a h;
  h.mix(group.suffix).mix("\n");

  // Hostnames in group order, each bound to its router's ordinal: the
  // router's first-appearance position in the group. Router ids are
  // deliberately NOT mixed: they are local to the owning batch/topology, so
  // the same suffix rendered standalone (a WorldDelta) must fingerprint
  // equal to the same suffix rendered inside a full-world batch. Only
  // content — names, which name sits on which router, and RTT rows —
  // participates.
  std::vector<topo::RouterId> routers;  // first-appearance order
  std::unordered_map<topo::RouterId, std::uint64_t> ordinal;
  routers.reserve(group.hostnames.size());
  ordinal.reserve(group.hostnames.size());
  for (const topo::HostnameRef& ref : group.hostnames) {
    const auto [it, first] = ordinal.try_emplace(ref.router, routers.size());
    if (first) routers.push_back(ref.router);
    if (ref.hostname != nullptr) h.mix(ref.hostname->full).mix("\n");
    h.mix(it->second);
  }

  const std::size_t vps = meas.pings.vp_count();
  h.mix(std::uint64_t{vps});
  for (const topo::RouterId r : routers) {
    if (r >= meas.pings.router_count()) {
      h.mix(std::uint64_t{0xdead});  // unmeasured router: distinct from all-miss rows
      continue;
    }
    for (measure::VpId v = 0; v < vps; ++v) {
      if (const auto rtt = meas.pings.rtt(r, v))
        h.mix(std::uint64_t{1}).mix(*rtt);
      else
        h.mix(std::uint64_t{0});
    }
  }
  return never_zero(h.value());
}

std::uint64_t vp_set_hash(const std::vector<measure::VantagePoint>& vps) {
  util::Fnv1a h;
  for (const measure::VantagePoint& vp : vps)
    h.mix(vp.name).mix("\n").mix(vp.country).mix("\n").mix(vp.coord.lat).mix(vp.coord.lon);
  return never_zero(h.value());
}

std::uint64_t learn_signature(const HoihoConfig& c, std::size_t dict_size) {
  util::Fnv1a sig;
  // Format version: 3 binds hostnames to routers in suffix_fingerprint, so
  // stores and priors keyed by older fingerprints never match.
  sig.mix(std::uint64_t{3})
      .mix(c.apparent.slack_ms)
      .mix(std::uint64_t{c.apparent.consider_icao})
      .mix(std::uint64_t{c.apparent.consider_facility})
      .mix(std::uint64_t{c.apparent.min_city_len})
      .mix(std::uint64_t{c.gen.annotation_free_variants})
      .mix(std::uint64_t{c.sets.min_unique_per_regex})
      .mix(c.sets.ppv_tolerance)
      .mix(std::uint64_t{c.sets.max_singles})
      .mix(std::uint64_t{c.sets.max_passes})
      .mix(std::uint64_t{c.learn.min_unique_seed})
      .mix(c.learn.seed_ppv)
      .mix(c.learn.accept_ppv)
      .mix(std::uint64_t{c.learn.tp_improvement})
      .mix(std::uint64_t{c.learn.congruent_plain})
      .mix(std::uint64_t{c.learn.congruent_annotated})
      .mix(std::uint64_t{c.rank.min_unique})
      .mix(c.rank.good_ppv)
      .mix(c.rank.promising_ppv)
      .mix(std::uint64_t{c.rank.tp_margin})
      .mix(std::uint64_t{c.min_tagged_hostnames})
      .mix(std::uint64_t{c.max_seed_hostnames})
      .mix(std::uint64_t{c.max_candidates})
      .mix(std::uint64_t{c.learn_top_n})
      .mix(std::uint64_t{c.enable_learning})
      .mix(std::uint64_t{dict_size});
  return sig.value();
}

void sort_conventions(std::vector<StoredConvention>& conventions) {
  std::stable_sort(conventions.begin(), conventions.end(),
                   [](const StoredConvention& a, const StoredConvention& b) {
                     return a.nc.suffix < b.nc.suffix;
                   });
}

PriorRun PriorRun::capture(HoihoResult result, const HoihoConfig& config,
                           std::size_t dict_size,
                           const std::vector<measure::VantagePoint>& vps,
                           std::uint64_t generation) {
  PriorRun prior;
  prior.learn_sig = learn_signature(config, dict_size);
  prior.vp_hash = vp_set_hash(vps);
  prior.generation = generation;
  prior.results = std::move(result.suffixes);
  prior.reindex();
  return prior;
}

const SuffixResult* PriorRun::find(std::uint64_t fingerprint, std::string_view suffix) const {
  const auto it = index_.find(fingerprint);
  return it == index_.end() || results[it->second].suffix != suffix ? nullptr
                                                                     : &results[it->second];
}

void PriorRun::reindex() {
  index_.clear();
  index_.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) index_.emplace(results[i].fingerprint, i);
}

bool is_model_delta(std::string_view head) {
  return head.substr(0, kModelDeltaMagic.size()) == kModelDeltaMagic;
}

std::string serialize_model_delta(const ModelDelta& delta, const geo::GeoDictionary& dict) {
  std::ostringstream out;
  out << kModelDeltaMagic << "\n";
  util::write_csv_row(out, {"D", std::to_string(delta.base_generation),
                            std::to_string(delta.upserts.size()),
                            std::to_string(delta.removes.size())});
  for (const std::string& s : delta.removes) util::write_csv_row(out, {"-", s});
  for (const StoredConvention& sc : delta.upserts) save_convention_block(out, sc, dict);
  std::string data = out.str();
  data += checksum_footer_line(fnv1a_hash(data));
  data += '\n';
  return data;
}

bool save_model_delta_to_file(const std::string& path, const ModelDelta& delta,
                              const geo::GeoDictionary& dict, std::string* error) {
  return write_model_file_atomic(path, serialize_model_delta(delta, dict), error);
}

std::optional<ModelDelta> load_model_delta(std::istream& in, const geo::GeoDictionary& dict,
                                           std::string* error,
                                           std::vector<std::string>* warnings,
                                           const LoadLimits& limits, io::LoadReport* report) {
  auto fail = [&](const std::string& msg) -> std::optional<ModelDelta> {
    if (error != nullptr) *error = msg;
    if (report != nullptr) report->fail(msg);
    return std::nullopt;
  };
  ModelDelta out;
  ConventionReader reader(dict, limits, warnings);
  std::string line;
  std::size_t lineno = 0;
  std::uint64_t hash = kFnvSeed;
  bool saw_magic = false, saw_header = false, footer_seen = false;
  std::uint64_t want_upserts = 0, want_removes = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (report != nullptr) ++report->lines;
    const std::string where = "line " + std::to_string(lineno);
    if (line.size() > limits.max_line)
      return fail(where + ": line exceeds " + std::to_string(limits.max_line) + " bytes");
    if (const auto stored = parse_checksum_footer(line)) {
      if (footer_seen) return fail(where + ": duplicate checksum footer");
      if (*stored != hash)
        return fail(where + ": checksum mismatch (file corrupt or torn write)");
      footer_seen = true;
      continue;
    }
    if (footer_seen) {
      if (report != nullptr) {
        io::LoadOptions count_only;
        count_only.lenient = true;
        report->skip(count_only, "trailing_garbage", lineno, "bytes after checksum footer");
      }
      return fail(where + ": bytes after checksum footer");
    }
    hash = fnv1a_hash(line, hash);
    hash = fnv1a_hash("\n", hash);
    if (!saw_magic) {
      if (line != kModelDeltaMagic)
        return fail(where + ": not a model delta (missing magic line)");
      saw_magic = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const util::CsvRow row = util::parse_csv_line(line);
    if (row.empty() || (row.size() == 1 && row[0].empty())) continue;
    for (const std::string& field : row)
      if (has_control_bytes(field)) return fail(where + ": control bytes in field");
    if (row[0] == "D") {
      if (saw_header) return fail(where + ": duplicate D header");
      if (row.size() != 4)
        return fail(where + ": D record needs 4 fields, got " + std::to_string(row.size()));
      const auto gen = util::parse_u64(row[1]);
      const auto ups = util::parse_u64(row[2]);
      const auto rms = util::parse_u64(row[3]);
      if (!gen || !ups || !rms) return fail(where + ": bad D header field");
      out.base_generation = *gen;
      want_upserts = *ups;
      want_removes = *rms;
      saw_header = true;
      continue;
    }
    if (!saw_header) return fail(where + ": record before D header");
    if (row[0] == "-") {
      if (row.size() != 2)
        return fail(where + ": remove record needs 2 fields, got " +
                    std::to_string(row.size()));
      if (row[1].size() > limits.max_suffix || !plausible_suffix(row[1]))
        return fail(where + ": bad suffix '" + row[1] + "'");
      out.removes.push_back(row[1]);
      continue;
    }
    std::string msg;
    if (!reader.feed(row, where, &msg)) return fail(where + ": " + msg);
  }
  if (in.bad()) return fail("read error after line " + std::to_string(lineno));
  if (!saw_magic) return fail("empty input (missing delta magic line)");
  if (!saw_header) return fail("missing D header");
  // Unlike model files, a delta without its footer is rejected outright: a
  // torn delta must never publish.
  if (!footer_seen) return fail("missing checksum footer (torn delta?)");
  out.upserts = reader.take();
  if (out.upserts.size() != want_upserts || out.removes.size() != want_removes)
    return fail("record counts disagree with D header (" +
                std::to_string(out.upserts.size()) + " upserts vs " +
                std::to_string(want_upserts) + ", " + std::to_string(out.removes.size()) +
                " removes vs " + std::to_string(want_removes) + ")");
  for (const std::string& s : out.removes)
    for (const StoredConvention& sc : out.upserts)
      if (sc.nc.suffix == s)
        return fail("suffix '" + s + "' both removed and upserted");
  if (report != nullptr) report->records = out.upserts.size() + out.removes.size();
  return out;
}

}  // namespace hoiho::core
