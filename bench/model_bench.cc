// Model format bench (DESIGN.md §15): save and reload wall time for the
// three model load paths — text parse+compile, ncb heap build, ncb mmap
// views — at two model scales, with a byte-identical answer sweep across
// all three on every run. Emits BENCH_MODEL.json; the committed copy is
// the baseline the perf-smoke CI job gates reload regressions against.
//
// Exit 0 iff every format answers byte-identically at every scale AND the
// mmap reload is >= 10x faster than the text reload at M (the acceptance
// number the binary format exists for).
//
// Run: ./build/bench/model_bench [out.json] [reps]

#include <cstdio>
#include <cstring>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "core/geolocate.h"
#include "core/nc_io.h"
#include "core/ncb.h"
#include "regex/parser.h"
#include "serve/model_store.h"
#include "serve/protocol.h"
#include "util/file.h"
#include "util/rng.h"

using namespace hoiho;

namespace {

using core::GeoRegex;
using core::NcClass;
using core::Role;
using core::StoredConvention;

// Resolvable IATA codes, so the sweep exercises real hit answers (learned
// and dictionary-resolved), not just the miss path.
const char* kCodes[] = {"ash", "lhr", "lax", "jfk", "sea", "ord", "fra", "ams",
                        "sin", "syd", "nrt", "cdg", "mad", "mia", "den", "iad"};
constexpr std::size_t kCodeCount = sizeof(kCodes) / sizeof(kCodes[0]);

// A deterministic synthetic model of `suffixes` conventions, shaped like the
// learner's output (IATA extractors, some two-regex, some with a country
// qualifier, a third carrying learned overrides). The loader cost scales
// with conventions x regexes x hints, which is what this bench measures —
// the learning pipeline that would produce an equivalent model at M scale
// is benched separately (pipeline_e2e).
std::vector<StoredConvention> synth_model(const geo::GeoDictionary& dict,
                                          std::size_t suffixes) {
  std::vector<StoredConvention> out(suffixes);
  for (std::size_t i = 0; i < suffixes; ++i) {
    const std::string suffix = "op" + std::to_string(i) + ".net";
    const std::string esc = "op" + std::to_string(i) + "\\.net";
    out[i].nc.suffix = suffix;
    out[i].cls = i % 2 == 0 ? NcClass::kGood : NcClass::kPromising;
    GeoRegex a;
    a.regex = *rx::parse("^.+\\.([a-z]{3})\\d+\\." + esc + "$");
    a.plan.roles = {Role::kIata};
    out[i].nc.regexes.push_back(std::move(a));
    if (i % 2 == 0) {
      GeoRegex b;
      b.regex = *rx::parse("^([a-z]{3})\\d*\\." + esc + "$");
      b.plan.roles = {Role::kIata};
      out[i].nc.regexes.push_back(std::move(b));
    } else {
      GeoRegex b;
      b.regex = *rx::parse("^.+\\.([a-z]{3})\\d+\\.([a-z]{2})\\." + esc + "$");
      b.plan.roles = {Role::kIata, Role::kCountryCode};
      out[i].nc.regexes.push_back(std::move(b));
    }
    if (i % 3 == 0) {
      // Learned overrides on a few codes; resolution happens at load time in
      // every format, so these are part of what must stay byte-identical.
      for (std::size_t k = 0; k < 3; ++k) {
        const char* code = kCodes[(i + k) % kCodeCount];
        const auto ids = dict.lookup(geo::HintType::kIata, code);
        if (!ids.empty()) out[i].nc.learned[{geo::HintType::kIata, code}] = ids[0];
      }
    }
  }
  return out;
}

// Query corpus: structured hits across the suffix space, near-misses, and
// garbage — the mix a serving deployment actually sees.
std::vector<std::string> query_corpus(std::size_t suffixes, std::size_t n) {
  util::Rng rng(20260809);
  std::vector<std::string> out;
  out.reserve(n);
  const auto letters = [&rng](std::size_t len) {
    std::string s;
    for (std::size_t i = 0; i < len; ++i)
      s += static_cast<char>('a' + rng.next_u64() % 26);
    return s;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::string suffix = "op" + std::to_string(rng.next_u64() % suffixes) + ".net";
    const std::string code = kCodes[rng.next_u64() % kCodeCount];
    switch (rng.next_u64() % 5) {
      case 0: out.push_back("core1." + code + "2." + suffix); break;
      case 1: out.push_back(code + "1." + suffix); break;
      case 2: out.push_back("te0." + code + "1.us." + suffix); break;
      case 3: out.push_back(letters(5) + "." + suffix); break;  // shape miss
      default: out.push_back(letters(4) + "." + letters(7) + ".example"); break;
    }
  }
  return out;
}

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::size_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.is_open() ? static_cast<std::size_t>(in.tellg()) : 0;
}

// The verified heap path for an ncb file — the steps ModelStore takes when
// it restores an archived generation: read the file, validate the whole
// image (NcbModel::from_bytes checks the payload hash) and build the
// Geolocator over it. False on any failure.
bool load_heap(const std::string& path, core::Geolocator* out) {
  std::string bytes;
  if (!util::read_file(path, &bytes)) return false;
  const auto model = core::NcbModel::from_bytes(bytes);
  if (model == nullptr) return false;
  model->build_geolocator(*out);
  return true;
}

// Min-of-reps load wall time. By default through serve::ModelStore::reload
// — the exact path the daemon's hot swap pays, snapshot build included (an
// ncb file is mmapped); `heap` times load_heap instead.
double time_load(const geo::GeoDictionary& dict, const std::string& path, bool heap,
                 int reps) {
  double best = -1;
  for (int r = 0; r < reps; ++r) {
    serve::ModelStore store(dict, path);
    core::Geolocator geolocator(dict);
    const auto t0 = std::chrono::steady_clock::now();
    if (heap ? !load_heap(path, &geolocator) : store.reload().has_value()) return -1;
    const double us = us_since(t0);
    if (best < 0 || us < best) best = us;
  }
  return best;
}

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

struct ScaleResult {
  std::string scale;
  std::size_t conventions = 0, queries = 0, hits = 0;
  std::size_t text_bytes = 0, ncb_bytes = 0;
  double save_text_us = -1, save_ncb_us = -1;
  double load_text_us = -1, load_ncb_us = -1, load_ncb_mmap_us = -1;
  bool identical = false;
  double speedup() const {
    return load_ncb_mmap_us <= 0 ? 0 : load_text_us / load_ncb_mmap_us;
  }
};

ScaleResult run_scale(const std::string& scale, std::size_t suffixes, int reps) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  ScaleResult res;
  res.scale = scale;
  const auto stored = synth_model(dict, suffixes);
  res.conventions = stored.size();

  const std::string text_path = "model_bench_" + scale + ".nc";
  const std::string ncb_path = "model_bench_" + scale + ".ncb";
  std::string error;
  auto t0 = std::chrono::steady_clock::now();
  if (!core::save_conventions_to_file(text_path, stored, dict, &error)) {
    std::fprintf(stderr, "model_bench: save text: %s\n", error.c_str());
    return res;
  }
  res.save_text_us = us_since(t0);
  t0 = std::chrono::steady_clock::now();
  if (!core::save_model_to_file(ncb_path, stored, dict, &error)) {
    std::fprintf(stderr, "model_bench: save ncb: %s\n", error.c_str());
    return res;
  }
  res.save_ncb_us = us_since(t0);
  res.text_bytes = file_bytes(text_path);
  res.ncb_bytes = file_bytes(ncb_path);

  res.load_text_us = time_load(dict, text_path, false, reps);
  res.load_ncb_us = time_load(dict, ncb_path, true, reps);
  res.load_ncb_mmap_us = time_load(dict, ncb_path, false, reps);

  // Equivalence sweep: one model per load path, every query compared on the
  // wire bytes the server would emit. Divergence is a hard failure.
  {
    serve::ModelStore text_store(dict, text_path);
    core::Geolocator heap_geo(dict);
    serve::ModelStore mmap_store(dict, ncb_path);
    if (text_store.reload() || !load_heap(ncb_path, &heap_geo) || mmap_store.reload()) {
      std::fprintf(stderr, "model_bench: equivalence reload failed\n");
      return res;
    }
    const auto text_snap = text_store.current();
    const auto mmap_snap = mmap_store.current();
    const auto wire = [](const core::Geolocator& g, const std::string& host) {
      const auto loc = g.locate(host);
      return loc ? serve::format_hit(*loc) : serve::format_miss();
    };
    const auto queries = query_corpus(suffixes, scale == "M" ? 20000 : 5000);
    res.queries = queries.size();
    res.identical = true;
    for (const std::string& q : queries) {
      const std::string want = wire(text_snap->geolocator, q);
      if (wire(heap_geo, q) != want ||
          wire(mmap_snap->geolocator, q) != want) {
        std::fprintf(stderr, "model_bench: ANSWER DIVERGED on '%s'\n", q.c_str());
        res.identical = false;
        break;
      }
      if (want != serve::format_miss()) ++res.hits;
    }
  }
  std::remove(text_path.c_str());
  std::remove(ncb_path.c_str());

  std::printf("%s: %zu NCs | text %zu B, ncb %zu B | save %s/%s us | "
              "load text %s, ncb %s, mmap %s us | mmap %sx | %zu/%zu hits %s\n",
              scale.c_str(), res.conventions, res.text_bytes, res.ncb_bytes,
              fmt1(res.save_text_us).c_str(), fmt1(res.save_ncb_us).c_str(),
              fmt1(res.load_text_us).c_str(), fmt1(res.load_ncb_us).c_str(),
              fmt1(res.load_ncb_mmap_us).c_str(), fmt1(res.speedup()).c_str(), res.hits,
              res.queries, res.identical ? "identical" : "DIVERGED");
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_MODEL.json";
  const int reps = argc > 2 ? std::max(1, std::atoi(argv[2])) : 5;

  std::vector<ScaleResult> scales;
  scales.push_back(run_scale("S", 50, reps));
  scales.push_back(run_scale("M", 2000, reps));

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"model_bench\",\n  \"reps\": " << reps << ",\n  \"scales\": [\n";
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const ScaleResult& r = scales[i];
    out << "    {\"scale\": \"" << r.scale << "\", \"conventions\": " << r.conventions
        << ", \"text_bytes\": " << r.text_bytes << ", \"ncb_bytes\": " << r.ncb_bytes
        << ",\n     \"save_text_us\": " << fmt1(r.save_text_us)
        << ", \"save_ncb_us\": " << fmt1(r.save_ncb_us)
        << ", \"load_text_us\": " << fmt1(r.load_text_us)
        << ", \"load_ncb_us\": " << fmt1(r.load_ncb_us)
        << ", \"load_ncb_mmap_us\": " << fmt1(r.load_ncb_mmap_us)
        << ",\n     \"speedup_mmap_vs_text\": " << fmt1(r.speedup())
        << ", \"queries\": " << r.queries << ", \"hits\": " << r.hits
        << ", \"answers_identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < scales.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"derived\": {\"m_speedup_mmap_vs_text\": " << fmt1(scales[1].speedup())
      << "}\n}\n";
  if (!out) {
    std::fprintf(stderr, "model_bench: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Acceptance: identical answers everywhere; >= 10x mmap-vs-text at M.
  bool pass = true;
  for (const ScaleResult& r : scales)
    pass = pass && r.identical && r.hits > 0 && r.load_text_us > 0 &&
           r.load_ncb_us > 0 && r.load_ncb_mmap_us > 0;
  if (scales[1].speedup() < 10.0) {
    std::fprintf(stderr, "model_bench: M-scale mmap speedup %.1fx < 10x\n",
                 scales[1].speedup());
    pass = false;
  }
  if (!pass) std::fprintf(stderr, "model_bench: FAILED acceptance\n");
  return pass ? 0 : 1;
}
