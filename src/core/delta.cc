#include "core/delta.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <sstream>

#include "io/load_report.h"
#include "util/csv.h"
#include "util/strings.h"

namespace hoiho::core {

namespace {

// Order-dependent FNV-1a over the 8 bytes of v — the same byte-wise mixing
// StreamSignature uses, so every fingerprint in the system shares one
// construction.
std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  return h;
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return mix_u64(h, bits);
}

std::uint64_t never_zero(std::uint64_t h) { return h == 0 ? 1 : h; }

}  // namespace

std::uint64_t suffix_fingerprint(const topo::SuffixGroup& group,
                                 const measure::Measurements& meas) {
  std::uint64_t h = fnv1a_hash(group.suffix);
  h = fnv1a_hash("\n", h);

  // Hostnames in group order, and the suffix's routers in first-appearance
  // order. Router ids are deliberately NOT mixed: they are local to the
  // owning batch/topology, so the same suffix rendered standalone (a
  // WorldDelta) must fingerprint equal to the same suffix rendered inside a
  // full-world batch. Only content — names and RTT rows — participates.
  std::vector<topo::RouterId> routers;
  routers.reserve(group.hostnames.size());
  for (const topo::HostnameRef& ref : group.hostnames) {
    if (ref.hostname != nullptr) {
      h = fnv1a_hash(ref.hostname->full, h);
      h = fnv1a_hash("\n", h);
    }
    if (std::find(routers.begin(), routers.end(), ref.router) == routers.end())
      routers.push_back(ref.router);
  }

  const std::size_t vps = meas.pings.vp_count();
  h = mix_u64(h, vps);
  for (const topo::RouterId r : routers) {
    if (r >= meas.pings.router_count()) {
      h = mix_u64(h, 0xdeadULL);  // unmeasured router: distinct from all-miss rows
      continue;
    }
    for (measure::VpId v = 0; v < vps; ++v) {
      if (const auto rtt = meas.pings.rtt(r, v)) {
        h = mix_u64(h, 1);
        h = mix_double(h, *rtt);
      } else {
        h = mix_u64(h, 0);
      }
    }
  }
  return never_zero(h);
}

std::uint64_t vp_set_hash(const std::vector<measure::VantagePoint>& vps) {
  std::uint64_t h = kFnvSeed;
  for (const measure::VantagePoint& vp : vps) {
    h = fnv1a_hash(vp.name, h);
    h = fnv1a_hash("\n", h);
    h = fnv1a_hash(vp.country, h);
    h = fnv1a_hash("\n", h);
    h = mix_double(h, vp.coord.lat);
    h = mix_double(h, vp.coord.lon);
  }
  return never_zero(h);
}

std::uint64_t learn_signature(const HoihoConfig& c, std::size_t dict_size) {
  io::StreamSignature sig;
  sig.mix(std::uint64_t{2})  // signature format version
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

const SuffixResult* PriorRun::find(std::string_view suffix) const {
  const auto it = index_.find(suffix);
  return it == index_.end() ? nullptr : &results[it->second];
}

void PriorRun::reindex() {
  index_.clear();
  index_.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) index_[results[i].suffix] = i;
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
