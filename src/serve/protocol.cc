#include "serve/protocol.h"

#include "util/strings.h"

namespace hoiho::serve {

namespace {

// True for a token that could only have been meant as a verb: all
// [A-Z0-9_] with at least one letter. Hostnames contain dots (and are
// conventionally lowercase), so they never qualify.
bool verb_shaped(std::string_view head) {
  bool letter = false;
  for (const char ch : head) {
    if (ch >= 'A' && ch <= 'Z') {
      letter = true;
    } else if ((ch < '0' || ch > '9') && ch != '_') {
      return false;
    }
  }
  return letter;
}

// "lat,lon" with both halves finite decimals, the latitude in [-90, 90]
// and the longitude in [-180, 180].
bool parse_coordinate(std::string_view text, geo::Coordinate* out) {
  const std::size_t comma = text.find(',');
  if (comma == std::string_view::npos) return false;
  const auto lat = util::parse_double(text.substr(0, comma));
  const auto lon = util::parse_double(text.substr(comma + 1));
  if (!lat || !lon || *lon < -180.0 || *lon > 180.0) return false;
  *out = geo::Coordinate{*lat, *lon};
  return out->valid();
}

std::string_view trim_spaces(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

Request parse_rollback_args(std::string_view rest) {
  Request req;
  req.kind = RequestKind::kRollback;
  const auto gen = util::parse_u64(trim_spaces(rest));
  if (!gen) {
    req.error = "rollback_usage";
    return req;
  }
  req.rollback_gen = *gen;
  return req;
}

Request parse_geob_args(std::string_view rest) {
  Request req;
  req.kind = RequestKind::kGeoBatch;
  const auto count = util::parse_u64(trim_spaces(rest));
  if (!count || *count == 0 || *count > kMaxGeobBatch) {
    req.error = "geob_usage";
    return req;
  }
  req.geob_count = static_cast<std::size_t>(*count);
  return req;
}

Request parse_delta_args(std::string_view rest) {
  Request req;
  req.kind = RequestKind::kDelta;
  req.path = trim_spaces(rest);
  if (req.path.empty()) req.error = "delta_usage";
  return req;
}

Request parse_geo_args(std::string_view rest) {
  Request req;
  req.kind = RequestKind::kGeo;
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  while (!rest.empty() && rest.back() == ' ') rest.remove_suffix(1);
  if (rest.empty()) {
    req.error = "geo_usage";
    return req;
  }
  const std::size_t space = rest.find(' ');
  req.subject = space == std::string_view::npos ? rest : rest.substr(0, space);
  std::string_view claim =
      space == std::string_view::npos ? std::string_view() : rest.substr(space + 1);
  while (!claim.empty() && claim.front() == ' ') claim.remove_prefix(1);
  if (!claim.empty()) {
    if (!parse_coordinate(claim, &req.claimed)) {
      req.error = "bad_coordinate";
      return req;
    }
    req.has_claimed = true;
  }
  return req;
}

// The verb table: one row per wire verb, shared by every caller. Argless
// verbs (parse == nullptr) must appear bare — a trailing argument makes the
// line an unknown verb, exactly as before the table existed. Verbs with a
// parser own their argument grammar, arity checks, and named usage errors.
struct VerbSpec {
  std::string_view name;
  RequestKind kind;                         // argless verbs: the result kind
  Request (*parse)(std::string_view rest);  // non-null: verb takes arguments
};

constexpr VerbSpec kVerbs[] = {
    {"STATS", RequestKind::kStats, nullptr},
    {"STATS2", RequestKind::kStats2, nullptr},
    {"METRICS", RequestKind::kMetrics, nullptr},
    {"RELOAD", RequestKind::kReload, nullptr},
    {"GENS", RequestKind::kGens, nullptr},
    {"GEO", RequestKind::kGeo, parse_geo_args},
    {"GEOB", RequestKind::kGeoBatch, parse_geob_args},
    {"ROLLBACK", RequestKind::kRollback, parse_rollback_args},
    {"DELTA", RequestKind::kDelta, parse_delta_args},
};

}  // namespace

Request parse_request(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  Request req;
  if (line.empty()) {
    req.kind = RequestKind::kEmpty;
    return req;
  }
  const std::size_t space = line.find(' ');
  const std::string_view head =
      space == std::string_view::npos ? line : line.substr(0, space);
  const std::string_view rest =
      space == std::string_view::npos ? std::string_view() : line.substr(space + 1);
  for (const VerbSpec& verb : kVerbs) {
    if (head != verb.name) continue;
    if (verb.parse != nullptr) return verb.parse(rest);
    if (space == std::string_view::npos) {
      req.kind = verb.kind;
      return req;
    }
    break;  // argless verb with arguments: unknown verb (below)
  }
  if (space != std::string_view::npos || verb_shaped(head)) {
    // A spaced line (hostnames have no spaces) or a bare verb-shaped
    // token: answer a named error rather than a misleading MISS.
    req.kind = RequestKind::kUnknownVerb;
    return req;
  }
  req.kind = RequestKind::kLookup;
  req.hostname = line;
  return req;
}

std::optional<std::size_t> parse_geob_count(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (!util::starts_with(line, "GEOB ")) return std::nullopt;
  const Request req = parse_geob_args(line.substr(5));
  if (!req.error.empty()) return std::nullopt;
  return req.geob_count;
}

std::string format_hit(const core::Geolocation& g) {
  std::string out = util::fmt_double(g.coord.lat, 4);
  out += ',';
  out += util::fmt_double(g.coord.lon, 4);
  out += ',';
  out += g.code;
  out += ',';
  out += g.via_learned ? "learned" : "dictionary";
  return out;
}

std::string format_miss() { return "MISS"; }

std::string format_geo(const fuse::FuseResult& result,
                       const std::optional<fuse::AuditOutcome>& audit) {
  std::string out = "GEO,";
  if (!result.answered()) {
    out += "miss";
  } else {
    const fuse::Verdict& best = result.best();
    out += util::fmt_double(best.coord.lat, 4);
    out += ',';
    out += util::fmt_double(best.coord.lon, 4);
    out += ',';
    if (result.set.code.empty()) {
      out += '-';
    } else {
      out += result.set.code;
    }
    out += ',';
    out += fuse::to_string(best.source);
    out += ',';
    out += util::fmt_double(best.score, 3);
    std::size_t feasible = 0;
    for (const fuse::Candidate& c : result.set.candidates)
      if (c.feasible) ++feasible;
    out += ",candidates=" + std::to_string(result.set.candidates.size());
    out += ",feasible=" + std::to_string(feasible);
  }
  if (audit) {
    out += ",audit=";
    out += fuse::to_string(*audit);
  }
  return out;
}

std::string format_error(std::string_view reason) {
  return "ERR," + std::string(reason);
}

std::string format_stats(const Metrics::Snapshot& m, std::uint64_t generation,
                         std::size_t conventions, std::size_t programs) {
  std::string out = "STATS";
  const auto kv = [&out](std::string_view key, std::uint64_t value) {
    out += ',';
    out += key;
    out += '=';
    out += std::to_string(value);
  };
  kv("requests", m.requests);
  kv("hits", m.hits);
  kv("misses", m.misses);
  kv("errors", m.errors);
  kv("admin", m.admin);
  kv("reloads", m.reloads);
  kv("reload_failures", m.reload_failures);
  kv("reload_debounced", m.reload_debounced);
  kv("deadline_expired", m.deadline_expired);
  kv("shed_busy", m.shed_busy);
  kv("idle_closed", m.idle_closed);
  kv("injected_faults", m.injected_faults);
  kv("batches", m.batches);
  kv("batched_lines", m.batched_lines);
  out += ",avg_batch=" + util::fmt_double(m.avg_batch(), 2);
  kv("connections_opened", m.connections_opened);
  kv("connections_closed", m.connections_closed);
  kv("parse_ns", m.parse_ns);
  kv("lookup_ns", m.lookup_ns);
  kv("write_ns", m.write_ns);
  kv("generation", generation);
  kv("conventions", conventions);
  kv("programs", programs);
  return out;
}

std::string format_stats_v2(const obs::Snapshot& snap, std::uint64_t generation,
                            std::size_t conventions, std::size_t programs) {
  std::string out = "STATS2";
  for (const obs::Snapshot::Entry& e : snap.entries) {
    out += ',';
    out += e.name;
    switch (e.kind) {
      case obs::Kind::kCounter:
        out += ":c=" + std::to_string(e.value);
        break;
      case obs::Kind::kGauge:
        out += ":g=" + std::to_string(e.gauge);
        break;
      case obs::Kind::kHistogram:
        out += ":h=count:" + std::to_string(e.hist.count);
        out += ";sum:" + util::fmt_double(e.hist.sum, 0);
        out += ";p50:" + util::fmt_double(e.hist.percentile(0.50), 0);
        out += ";p90:" + util::fmt_double(e.hist.percentile(0.90), 0);
        out += ";p99:" + util::fmt_double(e.hist.percentile(0.99), 0);
        break;
    }
  }
  out += ",generation:g=" + std::to_string(generation);
  out += ",conventions:g=" + std::to_string(conventions);
  out += ",programs:g=" + std::to_string(programs);
  return out;
}

std::string format_metrics_text(const obs::Snapshot& snap, std::uint64_t generation,
                                std::size_t conventions, std::size_t programs) {
  std::string out = snap.to_prometheus();
  const auto gauge = [&out](std::string_view name, std::uint64_t v) {
    out += "# TYPE ";
    out += name;
    out += " gauge\n";
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  };
  gauge("hoihod_generation", generation);
  gauge("hoihod_conventions", conventions);
  gauge("hoihod_programs", programs);
  out += "# EOF";
  return out;
}

std::string format_geob_header(std::size_t count) {
  return "GEOB," + std::to_string(count);
}

std::string format_delta_ok(std::uint64_t generation, std::uint64_t from,
                            std::size_t upserts, std::size_t removes,
                            std::size_t conventions) {
  return "DELTA,ok,generation=" + std::to_string(generation) +
         ",from=" + std::to_string(from) + ",upserts=" + std::to_string(upserts) +
         ",removes=" + std::to_string(removes) +
         ",conventions=" + std::to_string(conventions);
}

std::string format_delta_error(std::string_view message) {
  return "DELTA,error," + std::string(message);
}

std::string format_reload_ok(std::uint64_t generation, std::size_t conventions) {
  return "RELOAD,ok,generation=" + std::to_string(generation) +
         ",conventions=" + std::to_string(conventions);
}

std::string format_reload_error(std::string_view message) {
  return "RELOAD,error," + std::string(message);
}

std::string format_gens(std::uint64_t serving, const std::vector<std::uint64_t>& archived) {
  std::string out = "GENS,serving=" + std::to_string(serving) + ",archived=";
  if (archived.empty()) {
    out += '-';
    return out;
  }
  for (std::size_t i = 0; i < archived.size(); ++i) {
    if (i != 0) out += ';';
    out += std::to_string(archived[i]);
  }
  return out;
}

std::string format_rollback_ok(std::uint64_t generation, std::uint64_t from,
                               std::size_t conventions) {
  return "ROLLBACK,ok,generation=" + std::to_string(generation) +
         ",from=" + std::to_string(from) + ",conventions=" + std::to_string(conventions);
}

std::string format_rollback_error(std::string_view message) {
  return "ROLLBACK,error," + std::string(message);
}

ResponseKind classify_response(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line == "MISS") return ResponseKind::kMiss;
  if (util::starts_with(line, "GEOB,")) return ResponseKind::kGeoBatch;
  if (util::starts_with(line, "GEO,")) return ResponseKind::kGeo;
  if (util::starts_with(line, "#")) return ResponseKind::kMetrics;
  if (util::starts_with(line, "STATS2")) return ResponseKind::kStats2;
  if (util::starts_with(line, "STATS")) return ResponseKind::kStats;
  if (util::starts_with(line, "RELOAD,ok")) return ResponseKind::kReload;
  if (util::starts_with(line, "RELOAD,error")) return ResponseKind::kReloadError;
  if (util::starts_with(line, "GENS,")) return ResponseKind::kGens;
  if (util::starts_with(line, "ROLLBACK,ok")) return ResponseKind::kRollback;
  if (util::starts_with(line, "ROLLBACK,error")) return ResponseKind::kRollbackError;
  if (util::starts_with(line, "DELTA,ok")) return ResponseKind::kDelta;
  if (util::starts_with(line, "DELTA,error")) return ResponseKind::kDeltaError;
  if (util::starts_with(line, "ERR,")) return ResponseKind::kError;
  return ResponseKind::kHit;
}

}  // namespace hoiho::serve
