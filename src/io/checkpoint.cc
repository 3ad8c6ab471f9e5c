#include "io/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>

#include "core/nc_io.h"
#include "regex/parser.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/file.h"
#include "util/strings.h"

namespace hoiho::io {

namespace {

constexpr std::string_view kWalHeader = "# hoiho-geo checkpoint wal v1";
constexpr std::string_view kManifestHeader = "# hoiho-geo checkpoint manifest v1";

std::string hex16(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex16(std::string_view s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    v = v * 16 + static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

// Serializes one committed batch as a B / X-blocks / C record block (the
// grammar in checkpoint.h). Places are spelled out by name, like nc_io's
// L records, so the WAL survives process restarts.
void append_batch(std::ostream& out, std::size_t batch_index,
                  std::span<const core::SuffixResult> results,
                  const geo::GeoDictionary& dict) {
  util::write_csv_row(out, {"B", std::to_string(batch_index), std::to_string(results.size())});
  for (const core::SuffixResult& r : results) {
    const core::EvalCounts& c = r.eval.counts;
    util::write_csv_row(
        out, {"X", r.suffix, std::string(core::to_string(r.cls)),
              std::to_string(r.hostname_count), std::to_string(r.tagged_count),
              std::to_string(r.eval.regex_unique_tp.size()), std::to_string(c.tp),
              std::to_string(c.fp), std::to_string(c.fn), std::to_string(c.unk),
              std::to_string(c.none), std::to_string(c.budget_exhausted),
              hex16(r.fingerprint)});  // the reuse key (core/delta.h)
    for (const core::GeoRegex& gr : r.nc.regexes)
      util::write_csv_row(out, {"R", core::plan_to_token(gr.plan), gr.regex.to_string()});
    for (const auto& [key, loc] : r.nc.learned) {
      const geo::Location& l = dict.location(loc);
      util::write_csv_row(out, {"L", std::string(to_string(key.first)), key.second, l.city,
                                l.state, l.country});
    }
    for (const core::LearnedHint& h : r.learned) {
      const geo::Location& l = dict.location(h.location);
      util::write_csv_row(out, {"H", std::string(to_string(h.type)), h.code,
                                std::to_string(h.tp), std::to_string(h.fp),
                                std::to_string(h.existing_tp), l.city, l.state, l.country});
    }
    for (const std::string& code : r.eval.unique_tp_codes)
      util::write_csv_row(out, {"U", code});
    for (std::size_t i = 0; i < r.eval.regex_unique_tp.size(); ++i)
      for (const std::string& code : r.eval.regex_unique_tp[i])
        util::write_csv_row(out, {"V", std::to_string(i), code});
  }
  util::write_csv_row(out, {"C", std::to_string(batch_index)});
}

// Strict parser over the committed WAL prefix. Any deviation — unknown
// record, out-of-order batch index, a place that no longer resolves, counts
// that don't add up — fails the whole load (the caller then discards the
// checkpoint and relearns; a resume must be exact or not happen).
class WalParser {
 public:
  WalParser(const geo::GeoDictionary& dict, std::uint64_t sig) : dict_(dict), sig_(sig) {}

  bool parse(std::string_view wal, std::size_t* batches,
             std::vector<core::SuffixResult>* results, std::string* why) {
    std::size_t pos = 0, lineno = 0;
    bool saw_header = false, saw_sig = false;
    while (pos < wal.size()) {
      const std::size_t eol = wal.find('\n', pos);
      if (eol == std::string_view::npos) return fail(why, "unterminated final line");
      const std::string_view line = wal.substr(pos, eol - pos);
      pos = eol + 1;
      ++lineno;
      if (line.empty()) return fail(why, "blank line " + std::to_string(lineno));
      if (line[0] == '#') {
        if (lineno == 1) {
          if (line != kWalHeader) return fail(why, "bad WAL header");
          saw_header = true;
        } else if (util::starts_with(line, "# sig,")) {
          std::uint64_t sig = 0;
          if (!parse_hex16(line.substr(6), &sig) || sig != sig_)
            return fail(why, "key mismatch (config, dictionary or VP set changed)");
          saw_sig = true;
        }
        continue;
      }
      if (!saw_header || !saw_sig) return fail(why, "records before WAL header");
      if (!record(util::parse_csv_line(line), lineno, why)) return false;
    }
    if (in_batch_) return fail(why, "uncommitted trailing batch");
    *batches = batches_;
    *results = std::move(results_);
    return true;
  }

 private:
  static bool fail(std::string* why, const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  }

  bool record(const util::CsvRow& row, std::size_t lineno, std::string* why) {
    const std::string where = "wal line " + std::to_string(lineno);
    if (row.empty()) return fail(why, where + ": empty record");
    const std::string& kind = row[0];
    if (kind == "B") {
      if (in_batch_ || row.size() != 3) return fail(why, where + ": bad batch header");
      const auto index = util::parse_u64(row[1]), count = util::parse_u64(row[2]);
      if (!index || !count || *index != batches_) return fail(why, where + ": bad batch header");
      in_batch_ = true;
      expected_ = *count;
      in_batch_results_ = 0;
      return true;
    }
    if (kind == "C") {
      if (!in_batch_ || row.size() != 2) return fail(why, where + ": bad commit marker");
      const auto index = util::parse_u64(row[1]);
      if (!index || *index != batches_ || in_batch_results_ != expected_)
        return fail(why, where + ": bad commit marker");
      if (!finish_result(why, where)) return false;
      in_batch_ = false;
      ++batches_;
      return true;
    }
    if (!in_batch_) return fail(why, where + ": record outside a batch");
    if (kind == "X") {
      if (row.size() != 13) return fail(why, where + ": X record needs 13 fields");
      if (!finish_result(why, where)) return false;
      core::SuffixResult r;
      r.suffix = row[1];
      const auto cls = core::nc_class_from_token(row[2]);
      const auto hosts = util::parse_u64(row[3]), tagged = util::parse_u64(row[4]),
                 sets = util::parse_u64(row[5]), tp = util::parse_u64(row[6]),
                 fp = util::parse_u64(row[7]), fn = util::parse_u64(row[8]),
                 unk = util::parse_u64(row[9]), none = util::parse_u64(row[10]),
                 budget = util::parse_u64(row[11]);
      if (!cls || !hosts || !tagged || !sets || !tp || !fp || !fn || !unk || !none || !budget ||
          *hosts == 0 || r.suffix.empty() || !parse_hex16(row[12], &r.fingerprint))
        return fail(why, where + ": bad X record");
      r.cls = *cls;
      r.hostname_count = *hosts;
      r.tagged_count = *tagged;
      core::EvalCounts& c = r.eval.counts;
      c.tp = *tp;
      c.fp = *fp;
      c.fn = *fn;
      c.unk = *unk;
      c.none = *none;
      c.budget_exhausted = *budget;
      cur_ = std::move(r);
      cur_sets_ = *sets;
      have_cur_ = true;
      ++in_batch_results_;
      return true;
    }
    if (!have_cur_) return fail(why, where + ": record before any X record");
    if (kind == "R") {
      if (row.size() != 3) return fail(why, where + ": R record needs 3 fields");
      const auto plan = core::plan_from_token(row[1]);
      if (!plan) return fail(why, where + ": bad plan");
      std::string rx_error;
      const auto regex = rx::parse(row[2], &rx_error);
      if (!regex || regex->capture_count() != plan->roles.size())
        return fail(why, where + ": bad regex: " + rx_error);
      core::GeoRegex gr;
      gr.regex = *regex;
      gr.plan = *plan;
      // The NC's suffix is set iff it has regexes (run_suffix_impl only
      // assigns result.nc once an NC was actually built).
      cur_.nc.suffix = cur_.suffix;
      cur_.nc.regexes.push_back(std::move(gr));
      return true;
    }
    if (kind == "L" || kind == "H") {
      const bool is_hint = kind == "H";
      if (row.size() != (is_hint ? 9u : 6u))
        return fail(why, where + ": " + kind + " record has wrong arity");
      const auto type = core::hint_type_from_token(row[1]);
      if (!type || row[2].empty()) return fail(why, where + ": bad " + kind + " record");
      const std::size_t place = is_hint ? 6 : 3;
      const geo::LocationId loc =
          core::resolve_stored_place(dict_, row[place], row[place + 1], row[place + 2]);
      if (loc == geo::kInvalidLocation)
        return fail(why, where + ": place '" + row[place] + "' no longer resolves");
      if (is_hint) {
        core::LearnedHint h;
        h.type = *type;
        h.code = row[2];
        h.location = loc;
        const auto tp = util::parse_u64(row[3]), fp = util::parse_u64(row[4]),
                   existing = util::parse_u64(row[5]);
        if (!tp || !fp || !existing) return fail(why, where + ": bad H counts");
        h.tp = *tp;
        h.fp = *fp;
        h.existing_tp = *existing;
        cur_.learned.push_back(std::move(h));
      } else {
        cur_.nc.learned[core::LearnedKey{*type, row[2]}] = loc;
      }
      return true;
    }
    if (kind == "U") {
      if (row.size() != 2) return fail(why, where + ": U record needs 2 fields");
      cur_.eval.unique_tp_codes.insert(row[1]);
      return true;
    }
    if (kind == "V") {
      if (row.size() != 3) return fail(why, where + ": bad V record");
      const auto index = util::parse_u64(row[1]);
      if (!index || *index >= cur_sets_) return fail(why, where + ": bad V record");
      cur_.eval.regex_unique_tp.resize(cur_sets_);
      cur_.eval.regex_unique_tp[*index].insert(row[2]);
      return true;
    }
    return fail(why, where + ": unknown record type '" + kind + "'");
  }

  // Seals the in-flight X block (called on the next X or the C marker).
  bool finish_result(std::string*, const std::string&) {
    if (!have_cur_) return true;
    cur_.eval.regex_unique_tp.resize(cur_sets_);
    results_.push_back(std::move(cur_));
    cur_ = core::SuffixResult{};
    have_cur_ = false;
    return true;
  }

  const geo::GeoDictionary& dict_;
  std::uint64_t sig_;
  std::size_t batches_ = 0;
  bool in_batch_ = false;
  std::size_t expected_ = 0, in_batch_results_ = 0;
  core::SuffixResult cur_;
  std::uint64_t cur_sets_ = 0;
  bool have_cur_ = false;
  std::vector<core::SuffixResult> results_;
};

}  // namespace

Checkpoint::Checkpoint(std::string dir, std::uint64_t signature, const geo::GeoDictionary& dict)
    : dir_(std::move(dir)), sig_(signature), dict_(dict) {}

Checkpoint::~Checkpoint() {
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

bool Checkpoint::load_existing(Resume* out, std::string* why) {
  // Manifest first: it is the commit point.
  std::string manifest;
  if (!util::read_file(dir_ + "/MANIFEST", &manifest)) {
    *why = "manifest unreadable";
    return false;
  }
  std::optional<std::uint64_t> batches, results, wal_bytes;
  std::uint64_t wal_fnv = 0, sig = 0;
  bool have_sig = false, have_fnv = false, footer_ok = false;
  {
    std::uint64_t hash = core::kFnvSeed;
    std::size_t pos = 0;
    while (pos < manifest.size()) {
      const std::size_t eol = manifest.find('\n', pos);
      if (eol == std::string::npos) break;  // unterminated tail: not hashed
      const std::string_view line = std::string_view(manifest).substr(pos, eol - pos);
      pos = eol + 1;
      if (const auto stored = core::parse_checksum_footer(line)) {
        footer_ok = *stored == hash && pos == manifest.size();
        break;
      }
      hash = core::fnv1a_hash(line, hash);
      hash = core::fnv1a_hash("\n", hash);
      if (line.empty() || line[0] == '#') continue;
      const util::CsvRow row = util::parse_csv_line(line);
      if (row.size() != 2) continue;
      if (row[0] == "sig") have_sig = parse_hex16(row[1], &sig);
      else if (row[0] == "batches") batches = util::parse_u64(row[1]);
      else if (row[0] == "results") results = util::parse_u64(row[1]);
      else if (row[0] == "wal_bytes") wal_bytes = util::parse_u64(row[1]);
      else if (row[0] == "wal_fnv") have_fnv = parse_hex16(row[1], &wal_fnv);
    }
  }
  if (!footer_ok || !have_sig || !batches || !results || !wal_bytes || !have_fnv) {
    *why = "manifest corrupt (checksum or missing fields)";
    return false;
  }
  if (sig != sig_) {
    *why = "key mismatch (config, dictionary or VP set changed)";
    return false;
  }

  // Read exactly the committed WAL prefix; a tail beyond it is a torn
  // append from a crash mid-commit and is truncated away below.
  const int fd = ::open((dir_ + "/wal.log").c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    *why = std::string("wal unreadable: ") + std::strerror(errno);
    return false;
  }
  std::string wal(*wal_bytes, '\0');
  std::size_t got = 0;
  while (got < *wal_bytes) {
    const ssize_t n = ::read(fd, wal.data() + got, *wal_bytes - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  if (got != *wal_bytes) {
    ::close(fd);
    *why = "wal shorter than manifest commit point";
    return false;
  }
  if (core::fnv1a_hash(wal) != wal_fnv) {
    ::close(fd);
    *why = "wal prefix hash mismatch (corrupt log)";
    return false;
  }
  std::size_t parsed_batches = 0;
  std::vector<core::SuffixResult> parsed;
  WalParser parser(dict_, sig_);
  if (!parser.parse(wal, &parsed_batches, &parsed, why)) {
    ::close(fd);
    return false;
  }
  if (parsed_batches != *batches || parsed.size() != *results) {
    ::close(fd);
    *why = "wal record counts disagree with manifest";
    return false;
  }
  if (::ftruncate(fd, static_cast<off_t>(*wal_bytes)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    *why = std::string("wal truncate failed: ") + std::strerror(errno);
    return false;
  }

  wal_fd_ = fd;
  batches_ = *batches;
  results_ = *results;
  wal_bytes_ = *wal_bytes;
  wal_hash_ = wal_fnv;
  out->batches = *batches;
  out->results = std::move(parsed);
  return true;
}

bool Checkpoint::start_fresh(std::string* why) {
  ::unlink((dir_ + "/wal.log").c_str());
  ::unlink((dir_ + "/MANIFEST").c_str());
  std::string header;
  header += kWalHeader;
  header += "\n# sig,";
  header += hex16(sig_);
  header += '\n';
  const int fd =
      ::open((dir_ + "/wal.log").c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    *why = std::string("cannot create wal: ") + std::strerror(errno);
    return false;
  }
  if (!util::fd_write_all(fd, header) || ::fsync(fd) != 0) {
    *why = std::string("cannot write wal header: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  wal_fd_ = fd;
  batches_ = 0;
  results_ = 0;
  wal_bytes_ = header.size();
  wal_hash_ = core::fnv1a_hash(header);
  return rewrite_manifest(why);
}

bool Checkpoint::rewrite_manifest(std::string* why) {
  std::string body;
  body += kManifestHeader;
  body += '\n';
  body += "sig," + hex16(sig_) + '\n';
  body += "batches," + std::to_string(batches_) + '\n';
  body += "results," + std::to_string(results_) + '\n';
  body += "wal_bytes," + std::to_string(wal_bytes_) + '\n';
  body += "wal_fnv," + hex16(wal_hash_) + '\n';
  body += core::checksum_footer_line(core::fnv1a_hash(body));
  body += '\n';
  return util::write_file_atomic(dir_ + "/MANIFEST", body, why);
}

Checkpoint::Resume Checkpoint::open() {
  Resume out;
  ::mkdir(dir_.c_str(), 0755);  // EEXIST is the common case
  const bool existed = ::access((dir_ + "/MANIFEST").c_str(), F_OK) == 0;
  std::string why;
  if (existed) {
    if (load_existing(&out, &why)) {
      ready_ = true;
      return out;
    }
    out = Resume{};
    out.discarded = true;
    out.note = why;
  }
  if (start_fresh(&why)) {
    ready_ = true;
  } else {
    ready_ = false;
    out.note = out.note.empty() ? why : out.note + "; " + why;
  }
  return out;
}

bool Checkpoint::commit_batch(std::span<const core::SuffixResult> results,
                              std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    ready_ = false;  // one failed commit poisons the checkpoint for this run
    return false;
  };
  if (!ready_ || wal_fd_ < 0) return fail("checkpoint not ready");
  if (const auto f = util::failpoint::hit("checkpoint_write")) {
    errno = f.err;
    return fail(std::string("checkpoint write (injected): ") + std::strerror(errno));
  }
  std::ostringstream buf;
  append_batch(buf, batches_, results, dict_);
  const std::string block = buf.str();
  // WAL append is fsynced BEFORE the manifest rename: the manifest must
  // never commit bytes that could still be lost.
  if (!util::fd_write_all(wal_fd_, block))
    return fail(std::string("wal append: ") + std::strerror(errno));
  if (::fsync(wal_fd_) != 0) return fail(std::string("wal fsync: ") + std::strerror(errno));
  const std::uint64_t new_hash = core::fnv1a_hash(block, wal_hash_);
  const std::uint64_t new_bytes = wal_bytes_ + block.size();
  const std::size_t new_results = results_ + results.size();
  const std::size_t new_batches = batches_ + 1;

  wal_hash_ = new_hash;
  wal_bytes_ = new_bytes;
  results_ = new_results;
  batches_ = new_batches;
  std::string why;
  if (!rewrite_manifest(&why)) {
    // The WAL bytes are on disk but uncommitted; a resume truncates them.
    return fail("manifest rewrite: " + why);
  }
  return true;
}

}  // namespace hoiho::io
