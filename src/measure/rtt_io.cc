#include "measure/rtt_io.h"

#include <cstdlib>
#include <istream>
#include <ostream>
#include <unordered_map>

#include "util/csv.h"
#include "util/strings.h"

namespace hoiho::measure {

namespace {

// Full-token numeric parses: trailing junk ("12.5ms", "3x") marks a corrupt
// field rather than silently truncating to a prefix.
bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

}  // namespace

void save_measurements(std::ostream& out, const Measurements& meas) {
  out << "# hoiho-geo measurements v1\n";
  for (const VantagePoint& vp : meas.vps) {
    util::write_csv_row(out, {"V", vp.name, vp.country, util::fmt_double(vp.coord.lat, 4),
                              util::fmt_double(vp.coord.lon, 4)});
  }
  for (topo::RouterId r = 0; r < meas.pings.router_count(); ++r) {
    for (VpId v = 0; v < meas.pings.vp_count(); ++v) {
      const auto rtt = meas.pings.rtt(r, v);
      if (!rtt) continue;
      util::write_csv_row(out, {"R", std::to_string(r), meas.vps[v].name,
                                util::fmt_double(*rtt, 3)});
    }
  }
}

std::optional<Measurements> load_measurements(std::istream& in, std::size_t router_count,
                                              const io::LoadOptions& opt,
                                              io::LoadReport* report) {
  io::LoadReport local;
  io::LoadReport& rep = report != nullptr ? *report : local;

  // Two passes over the stream are awkward for pipes, so buffer sample rows
  // until all VPs are known (VP rows conventionally come first, but the
  // format does not require it).
  std::vector<VantagePoint> vps;
  std::unordered_map<std::string, VpId> vp_index;
  struct Sample {
    topo::RouterId router;
    std::string vp;
    double rtt;
    std::size_t lineno;
  };
  std::vector<Sample> samples;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    ++rep.lines;
    if (line.size() > opt.max_line_bytes) {
      if (!rep.skip(opt, "oversized_line", lineno,
                    "line exceeds " + std::to_string(opt.max_line_bytes) + " bytes"))
        return std::nullopt;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const util::CsvRow row = util::parse_csv_line(line);
    if (row.empty()) continue;
    if (row[0] == "V") {
      if (row.size() < 5) {
        if (!rep.skip(opt, "bad_fields", lineno, "V record needs 5 fields")) return std::nullopt;
        continue;
      }
      VantagePoint vp;
      vp.name = row[1];
      vp.country = row[2];
      if (!parse_double(row[3], &vp.coord.lat) || !parse_double(row[4], &vp.coord.lon)) {
        if (!rep.skip(opt, "bad_number", lineno, "non-numeric coordinates")) return std::nullopt;
        continue;
      }
      if (!vp.coord.valid()) {
        if (!rep.skip(opt, "bad_coords", lineno, "invalid coordinates")) return std::nullopt;
        continue;
      }
      if (vp.name.empty() || vp_index.count(vp.name) != 0) {
        if (!rep.skip(opt, "duplicate_vp", lineno,
                      vp.name.empty() ? "empty VP name"
                                      : "duplicate VP name '" + vp.name + "'"))
          return std::nullopt;
        continue;
      }
      vp_index.emplace(vp.name, static_cast<VpId>(vps.size()));
      vps.push_back(std::move(vp));
      ++rep.records;
    } else if (row[0] == "R") {
      if (row.size() < 4) {
        if (!rep.skip(opt, "bad_fields", lineno, "R record needs 4 fields")) return std::nullopt;
        continue;
      }
      Sample s;
      const auto router_idx = util::parse_u64(row[1]);
      if (!router_idx || !parse_double(row[3], &s.rtt)) {
        if (!rep.skip(opt, "bad_number", lineno, "non-numeric router id or RTT"))
          return std::nullopt;
        continue;
      }
      if (*router_idx >= router_count) {
        if (!rep.skip(opt, "router_out_of_range", lineno,
                      "router id " + row[1] + " out of range (topology has " +
                          std::to_string(router_count) + " routers)"))
          return std::nullopt;
        continue;
      }
      if (s.rtt < 0) {
        if (!rep.skip(opt, "negative_rtt", lineno, "negative RTT")) return std::nullopt;
        continue;
      }
      if (opt.max_records > 0 && samples.size() >= opt.max_records) {
        rep.fail("line " + std::to_string(lineno) + ": more than " +
                 std::to_string(opt.max_records) + " samples (record cap)");
        return std::nullopt;
      }
      s.router = static_cast<topo::RouterId>(*router_idx);
      s.vp = row[2];
      s.lineno = lineno;
      samples.push_back(std::move(s));
      ++rep.records;
    } else {
      if (!rep.skip(opt, "unknown_record", lineno, "unknown record type '" + row[0] + "'"))
        return std::nullopt;
      continue;
    }
  }
  if (in.bad()) {
    rep.fail("read error after line " + std::to_string(lineno));
    return std::nullopt;
  }

  Measurements meas(std::move(vps), router_count);
  for (const Sample& s : samples) {
    const auto it = vp_index.find(s.vp);
    if (it == vp_index.end()) {
      if (!rep.skip(opt, "unknown_vp", s.lineno, "unknown VP '" + s.vp + "'"))
        return std::nullopt;
      --rep.records;  // the buffered sample never landed in the matrix
      continue;
    }
    meas.pings.record(s.router, it->second, s.rtt);
  }
  return meas;
}

std::optional<Measurements> load_measurements(std::istream& in, std::size_t router_count,
                                              std::string* error) {
  io::LoadReport report;
  auto meas = load_measurements(in, router_count, io::LoadOptions{}, &report);
  if (!meas && error != nullptr) *error = report.error;
  return meas;
}

}  // namespace hoiho::measure
