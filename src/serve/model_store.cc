#include "serve/model_store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "serve/protocol.h"
#include "util/failpoint.h"
#include "util/file.h"
#include "util/strings.h"

namespace hoiho::serve {

namespace {

// Reads just enough of the file to sniff the model format (the ncb magic is
// 8 bytes). Keeps the mmap reload path from reading the whole model only to
// decide how to load it.
bool read_head(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  char buf[8] = {};
  in.read(buf, sizeof buf);
  out->assign(buf, static_cast<std::size_t>(in.gcount()));
  return true;
}

// Parses "gen-<N>.nc" / "gen-<N>.ncb"; nullopt for anything else in the
// archive dir. Archives carry the extension of the format they hold.
std::optional<std::uint64_t> gen_from_name(std::string_view name) {
  if (!util::starts_with(name, "gen-")) return std::nullopt;
  std::size_t ext = 0;
  if (util::ends_with(name, ".ncb"))
    ext = 4;
  else if (util::ends_with(name, ".nc"))
    ext = 3;
  else
    return std::nullopt;
  return util::parse_u64(name.substr(4, name.size() - 4 - ext));
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
}

// The watch outcome of acting on a file that held still.
ModelStore::WatchOutcome acted(const std::optional<std::string>& err, std::string* error) {
  if (!err) return ModelStore::WatchOutcome::kReloaded;
  if (error != nullptr) *error = *err;
  return ModelStore::WatchOutcome::kReloadFailed;
}

}  // namespace

struct ModelStore::Candidate {
  std::shared_ptr<ModelSnapshot> snap;
  std::string text;  // a text model's bytes as read
  // What the generation archive keeps: the text as read, or the ncb image
  // (for a mapped model, a view into the mapping the snapshot pins).
  std::string_view archive_bytes() const {
    return snap->ncb != nullptr ? snap->ncb->raw_bytes() : std::string_view(text);
  }
};

ModelStore::ModelStore(const geo::GeoDictionary& dict, std::string path)
    : dict_(dict), path_(std::move(path)), snap_(std::make_shared<ModelSnapshot>(dict_)) {}

ModelStore::FileStamp ModelStore::FileStamp::of(const std::string& path) {
  struct stat st{};
  FileStamp fs;
  if (::stat(path.c_str(), &st) != 0) return fs;
  fs.exists = true;
  fs.sec = st.st_mtim.tv_sec;
  fs.nsec = st.st_mtim.tv_nsec;
  return fs;
}

std::optional<ModelStore::WatchOutcome> ModelStore::FileWatch::step() {
  if (path.empty()) return WatchOutcome::kUnchanged;
  const FileStamp now = FileStamp::of(path);
  if (!now.exists || now.same(seen)) {
    // A missing file is the mid-rename window of a deploy (or a deleted
    // file): keep serving and keep watching; it is not a failed load.
    pending = {};
    return now.exists ? WatchOutcome::kUnchanged : WatchOutcome::kMissing;
  }
  if (!now.same(pending)) {
    // New stamp: wait until it holds still for one full poll interval so we
    // don't read a file another process is still writing.
    pending = now;
    return WatchOutcome::kDebounced;
  }
  // Record before acting: a failed load or apply is reported once per file
  // change, not once per poll.
  pending = {};
  seen = now;
  return std::nullopt;
}

std::optional<std::string> ModelStore::publish_locked(std::shared_ptr<ModelSnapshot> snap,
                                                      bool canary,
                                                      std::string_view archive_bytes,
                                                      std::uint64_t* new_generation) {
  if (canary) {
    if (const auto rejected = canary_check_locked(*snap)) {
      if (metrics_ != nullptr) metrics_->reload_rejected.inc();
      return rejected;
    }
  }
  const std::uint64_t gen = next_generation_++;
  snap->generation = gen;
  if (metrics_ != nullptr) metrics_->model_generation.set(static_cast<std::int64_t>(gen));
  {
    // `previous` outlives the lock: it may be the last reference, and the
    // old model is freed outside snap_mu_.
    std::shared_ptr<const ModelSnapshot> previous(std::move(snap));
    std::lock_guard lock(snap_mu_);
    snap_.swap(previous);
  }
  if (!archive_bytes.empty()) archive_locked(gen, archive_bytes);
  if (new_generation != nullptr) *new_generation = gen;
  return std::nullopt;
}

std::shared_ptr<ModelSnapshot> ModelStore::build_snapshot_locked(
    std::vector<core::StoredConvention> conventions, std::vector<std::string> warnings,
    std::shared_ptr<const core::NcbModel> ncb) const {
  auto snap = std::make_shared<ModelSnapshot>(dict_);
  snap->fuse = fuse_ctx_;
  snap->warnings = std::move(warnings);
  if (ncb != nullptr) {
    snap->format = ncb->mapped() ? "ncb_mmap" : "ncb";
    ncb->build_geolocator(snap->geolocator, &snap->warnings);
    snap->ncb = std::move(ncb);
  } else {
    for (const core::StoredConvention& sc : conventions)
      if (sc.cls != core::NcClass::kPoor) snap->geolocator.add(sc.nc, sc.cls);
    core::sort_conventions(conventions);
    snap->stored = std::move(conventions);
  }
  snap->convention_count = snap->geolocator.convention_count();
  snap->program_count = snap->geolocator.program_count();
  return snap;
}

std::optional<std::string> ModelStore::load_locked(const std::string& file, bool map,
                                                   const std::string& what,
                                                   Candidate* out) const {
  // Sniff the format from the first bytes so one store serves both: the ncb
  // magic picks the binary loader, anything else is text.
  std::string head;
  if (!read_head(file, &head)) return "cannot open " + what;
  std::string error;
  if (core::detect_model_format(head) == core::ModelFormat::kNcb) {
    std::shared_ptr<const core::NcbModel> model;
    if (map) {
      model = core::NcbModel::open(file, &error);
    } else {
      std::string bytes;
      if (!util::read_file(file, &bytes)) return "cannot open " + what;
      model = core::NcbModel::from_bytes(bytes, &error);
    }
    if (model == nullptr) return what + ": " + error;
    out->snap = build_snapshot_locked({}, {}, std::move(model));
    return std::nullopt;
  }
  if (!util::read_file(file, &out->text)) return "cannot open " + what;
  std::vector<std::string> warnings;
  std::istringstream in(out->text);
  auto loaded = core::load_conventions(in, dict_, &error, &warnings);
  if (!loaded) return what + ": " + error;
  out->snap = build_snapshot_locked(std::move(*loaded), std::move(warnings));
  return std::nullopt;
}

std::optional<std::string> ModelStore::reload() {
  std::lock_guard lock(reload_mu_);
  return reload_locked();
}

std::optional<std::string> ModelStore::reload_locked() {
  if (path_.empty()) return "model store has no file path";
  const auto t0 = std::chrono::steady_clock::now();
  // Record the stamp before parsing so a write racing the load triggers one
  // more watch cycle rather than being missed.
  model_watch_.seen = FileStamp::of(path_);
  const std::string what = "model file '" + path_ + "'";
  if (util::failpoint::hit("store.reload")) return what + ": injected reload failure";
  Candidate c;
  if (auto err = load_locked(path_, /*map=*/true, what, &c)) return err;
  if (const auto rejected = publish_locked(c.snap, /*canary=*/true, c.archive_bytes(), nullptr)) {
    // The candidate parsed but fails the health gate: keep the previous
    // generation serving. The watch stamp was already recorded, so the
    // watcher won't retry the same bad file every poll.
    return what + ": " + *rejected;
  }
  record_load_locked(t0, *c.snap);
  return std::nullopt;
}

void ModelStore::record_load_locked(std::chrono::steady_clock::time_point t0,
                                    const ModelSnapshot& snap) {
  // Stash the load facts even when no metrics are attached yet: the boot
  // load precedes the server's registry, and set_metrics replays the stash
  // so the load-path counters are truthful for a daemon that never swaps.
  pending_load_ = LoadCost{elapsed_us(t0), snap.format,
                           snap.ncb != nullptr ? snap.ncb->bytes_mapped() : 0};
  record_pending_load_locked();
}

void ModelStore::record_pending_load_locked() {
  if (metrics_ == nullptr || !pending_load_) return;
  const LoadCost& load = *pending_load_;
  metrics_->reload_us.observe(static_cast<double>(load.us));
  if (load.format == "ncb_mmap") {
    metrics_->load_build_us_ncb_mmap.add(load.us);
    metrics_->load_bytes_mapped.add(load.mapped);
  } else if (load.format == "ncb") {
    metrics_->load_build_us_ncb.add(load.us);
  } else {
    metrics_->load_build_us_text.add(load.us);
  }
  pending_load_.reset();
}

void ModelStore::set_metrics(Metrics* metrics) {
  std::lock_guard lock(reload_mu_);
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    record_pending_load_locked();
    // Publishes that preceded the registry (the boot load) still surface
    // through the generation gauge.
    metrics_->model_generation.set(static_cast<std::int64_t>(generation()));
  }
}

void ModelStore::set_keep_generations(std::size_t n) {
  std::lock_guard lock(reload_mu_);
  keep_generations_ = n;
  if (n > 0 && !path_.empty()) scan_archive_locked();
}

void ModelStore::set_canary(std::string path) {
  std::lock_guard lock(reload_mu_);
  canary_path_ = std::move(path);
}

std::string ModelStore::gen_file(std::uint64_t gen, core::ModelFormat format) const {
  return gens_dir() + "/gen-" + std::to_string(gen) +
         (format == core::ModelFormat::kNcb ? ".ncb" : ".nc");
}

std::vector<std::uint64_t> ModelStore::list_generations_locked() const {
  std::vector<std::uint64_t> gens;
  DIR* d = ::opendir(gens_dir().c_str());
  if (d == nullptr) return gens;
  while (struct dirent* e = ::readdir(d)) {
    if (const auto g = gen_from_name(e->d_name)) gens.push_back(*g);
  }
  ::closedir(d);
  std::sort(gens.begin(), gens.end());
  gens.erase(std::unique(gens.begin(), gens.end()), gens.end());
  return gens;
}

std::vector<std::uint64_t> ModelStore::list_generations() {
  std::lock_guard lock(reload_mu_);
  return list_generations_locked();
}

void ModelStore::scan_archive_locked() {
  const std::vector<std::uint64_t> gens = list_generations_locked();
  if (!gens.empty()) next_generation_ = std::max(next_generation_, gens.back() + 1);
}

void ModelStore::archive_locked(std::uint64_t gen, std::string_view bytes) {
  if (keep_generations_ == 0 || path_.empty()) return;
  ::mkdir(gens_dir().c_str(), 0755);  // EEXIST is the common case
  // Best-effort: a full disk must not turn a healthy publish into a failed
  // reload — the archive exists to serve rollbacks, not to gate serving.
  if (!core::write_model_file_atomic(gen_file(gen, core::detect_model_format(bytes)), bytes))
    return;
  std::vector<std::uint64_t> gens = list_generations_locked();
  for (std::size_t i = 0; gens.size() - i > keep_generations_; ++i) {
    ::unlink(gen_file(gens[i], core::ModelFormat::kText).c_str());
    ::unlink(gen_file(gens[i], core::ModelFormat::kNcb).c_str());
  }
}

std::optional<std::string> ModelStore::canary_check_locked(
    const ModelSnapshot& candidate) const {
  if (canary_path_.empty()) return std::nullopt;
  std::string text;
  if (!util::read_file(canary_path_, &text))
    return "canary file '" + canary_path_ + "' unreadable (failing closed)";
  std::size_t queries = 0, failures = 0;
  std::string first;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = std::string_view(text).substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t comma = line.find(',');
    const std::string_view host = comma == std::string_view::npos ? line : line.substr(0, comma);
    ++queries;
    const auto loc = candidate.geolocator.locate(host);
    const std::string got = loc ? format_hit(*loc) : format_miss();
    const bool ok = comma == std::string_view::npos ? loc.has_value()
                                                    : got == line.substr(comma + 1);
    if (!ok) {
      ++failures;
      if (first.empty()) first = std::string(host) + " -> " + got;
    }
  }
  if (queries == 0)
    return "canary file '" + canary_path_ + "' has no queries (failing closed)";
  if (failures > 0)
    return "canary rejected: " + std::to_string(failures) + "/" + std::to_string(queries) +
           " queries diverged (first: " + first + ")";
  return std::nullopt;
}

std::optional<std::string> ModelStore::rollback(std::uint64_t gen,
                                                std::uint64_t* new_generation) {
  std::lock_guard lock(reload_mu_);
  if (path_.empty()) return "model store has no file path";
  if (keep_generations_ == 0) return "generation archive disabled (--keep-generations)";
  const auto t0 = std::chrono::steady_clock::now();
  // Probe both archive extensions; the bytes themselves (not the name)
  // pick the loader, so a mislabeled archive still restores correctly.
  std::string file = gen_file(gen, core::ModelFormat::kText);
  if (::access(file.c_str(), R_OK) != 0) file = gen_file(gen, core::ModelFormat::kNcb);
  if (::access(file.c_str(), R_OK) != 0)
    return "generation " + std::to_string(gen) + " is not in the archive";
  // Archive restore is the verified heap path: from_bytes checks the
  // payload hash, catching archives that rotted on disk.
  Candidate c;
  if (auto err = load_locked(file, /*map=*/false, "archived generation " + std::to_string(gen),
                             &c))
    return err;
  // An explicit operator action: no canary.
  publish_locked(c.snap, /*canary=*/false, c.archive_bytes(), new_generation);
  if (metrics_ != nullptr) metrics_->rollbacks.inc();
  record_load_locked(t0, *c.snap);
  return std::nullopt;
}

void ModelStore::install(const std::vector<core::StoredConvention>& conventions) {
  std::lock_guard lock(reload_mu_);
  // install() always succeeds: no canary, nothing to archive.
  publish_locked(build_snapshot_locked(conventions, {}), /*canary=*/false, {}, nullptr);
}

void ModelStore::set_fuse_context(std::shared_ptr<const fuse::FuseContext> ctx) {
  std::lock_guard lock(reload_mu_);
  fuse_ctx_ = std::move(ctx);
  // Republish the live model with the new context: copy the current
  // snapshot (the Geolocator's compiled matchers copy with it — no regex
  // recompilation) and swap the context. Readers that pinned the previous
  // snapshot finish on the old (model, context) pair, consistently.
  auto snap = std::make_shared<ModelSnapshot>(*current());
  snap->fuse = fuse_ctx_;
  // The model bytes are unchanged: no canary, nothing to archive.
  publish_locked(std::move(snap), /*canary=*/false, {}, nullptr);
}

ModelStore::WatchOutcome ModelStore::poll_watch(std::string* error) {
  std::lock_guard lock(reload_mu_);
  if (const auto idle = model_watch_.step()) return *idle;
  return acted(reload_locked(), error);
}

std::optional<std::string> ModelStore::apply_delta(const core::ModelDelta& delta,
                                                   DeltaApply* out) {
  std::lock_guard lock(reload_mu_);
  return apply_delta_locked(delta, out);
}

std::optional<std::string> ModelStore::apply_delta_locked(const core::ModelDelta& delta,
                                                          DeltaApply* out) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto reject = [&](std::string msg) -> std::optional<std::string> {
    if (metrics_ != nullptr) metrics_->delta_rejected.inc();
    return msg;
  };

  const std::shared_ptr<const ModelSnapshot> base = current();
  if (delta.base_generation != base->generation)
    return reject("delta targets generation " + std::to_string(delta.base_generation) +
                  " but generation " + std::to_string(base->generation) + " is serving");

  // The merge base: the snapshot's stored list, materialized from the ncb
  // image the first time a delta lands on a binary generation.
  std::vector<core::StoredConvention> stored;
  if (base->stored.empty() && base->ncb != nullptr) {
    std::string error;
    auto s = base->ncb->to_stored(dict_, &error);
    if (!s) return reject("base model: " + error);
    stored = std::move(*s);
    core::sort_conventions(stored);
  } else {
    stored = base->stored;
  }

  // Successor snapshot by structural sharing: the copied Geolocator keeps
  // every unchanged suffix's compiled matcher (for an ncb base, views into
  // the mapping the copied snap->ncb handle pins).
  auto snap = std::make_shared<ModelSnapshot>(*base);
  snap->warnings.clear();

  const auto find_stored = [&stored](std::string_view suffix) {
    return std::find_if(stored.begin(), stored.end(), [&](const core::StoredConvention& sc) {
      return sc.nc.suffix == suffix;
    });
  };
  for (const std::string& suffix : delta.removes) {
    const auto it = find_stored(suffix);
    if (it == stored.end())
      return reject("delta removes unknown suffix '" + suffix + "'");
    stored.erase(it);
    snap->geolocator.remove(suffix);  // no-op for kPoor entries (never added)
  }
  for (const core::StoredConvention& sc : delta.upserts) {
    const auto it = find_stored(sc.nc.suffix);
    if (it == stored.end())
      stored.push_back(sc);
    else
      *it = sc;
    if (sc.cls == core::NcClass::kPoor)
      snap->geolocator.remove(sc.nc.suffix);  // demoted: stored, not served
    else
      snap->geolocator.add(sc.nc, sc.cls);
  }
  core::sort_conventions(stored);
  snap->stored = std::move(stored);
  snap->convention_count = snap->geolocator.convention_count();
  snap->program_count = snap->geolocator.program_count();

  // Archive bytes re-serialized in the base's format, so a delta-built
  // generation is as self-contained a rollback target as a full load.
  std::string bytes;
  if (keep_generations_ > 0 && !path_.empty())
    bytes = base->ncb != nullptr ? core::serialize_conventions_ncb(snap->stored, dict_)
                                 : core::serialize_conventions(snap->stored, dict_);
  const std::size_t upserts = delta.upserts.size();
  const std::size_t removes = delta.removes.size();
  const std::size_t conventions = snap->convention_count;
  std::uint64_t published = 0;
  if (const auto err = publish_locked(std::move(snap), /*canary=*/true, bytes, &published))
    return reject(*err);
  if (metrics_ != nullptr) {
    metrics_->delta_applies.inc();
    metrics_->delta_apply_us.observe(static_cast<double>(elapsed_us(t0)));
  }
  if (out != nullptr) {
    out->base_generation = delta.base_generation;
    out->new_generation = published;
    out->upserts = upserts;
    out->removes = removes;
    out->conventions = conventions;
  }
  return std::nullopt;
}

std::optional<std::string> ModelStore::apply_delta_file(const std::string& path,
                                                        DeltaApply* out) {
  std::lock_guard lock(reload_mu_);
  std::string bytes;
  if (!util::read_file(path, &bytes)) {
    if (metrics_ != nullptr) metrics_->delta_rejected.inc();
    return "cannot open delta file '" + path + "'";
  }
  std::string error;
  std::istringstream in(bytes);
  const auto delta = core::load_model_delta(in, dict_, &error);
  if (!delta) {
    if (metrics_ != nullptr) metrics_->delta_rejected.inc();
    return "delta file '" + path + "': " + error;
  }
  return apply_delta_locked(*delta, out);
}

void ModelStore::set_delta_watch(std::string path) {
  std::lock_guard lock(reload_mu_);
  delta_watch_ = FileWatch{std::move(path)};
}

ModelStore::WatchOutcome ModelStore::poll_delta_watch(std::string* error) {
  std::string path;
  {
    std::lock_guard lock(reload_mu_);
    if (const auto idle = delta_watch_.step()) return *idle;
    path = delta_watch_.path;
  }
  return acted(apply_delta_file(path), error);
}

}  // namespace hoiho::serve
