// Reload-equivalence suite (DESIGN.md §15): the three model load paths —
// text parse, ncb heap load, ncb mmap — must produce *byte-identical*
// answers. Divergence here means a served answer silently depends on which
// format the deploy shipped, which is the one bug the binary format is not
// allowed to have. Coverage:
//   - a canary corpus of structured hostnames, field-by-field;
//   - 10k randomized hostnames (structured hits, near-misses, garbage),
//     compared on the wire format the server would emit;
//   - ModelStore-level: the same file answers identically whether reloaded
//     as text, heap ncb, or mmap ncb, with snapshot format labels to match;
//   - 8 reader threads hammering lookups through repeated mmap hot swaps
//     (run under TSan in CI): a pinned snapshot must keep its mapping alive
//     across any number of reloads.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/geolocate.h"
#include "core/nc_io.h"
#include "core/ncb.h"
#include "regex/parser.h"
#include "serve/model_store.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace hoiho {
namespace {

using core::GeoRegex;
using core::Geolocator;
using core::NcClass;
using core::Role;
using core::StoredConvention;

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

// A corpus model wide enough to exercise every role family the extractor
// serializes: IATA with learned overrides, CLLI pairs with country codes,
// multi-regex suffixes, and a kPoor block the serving build must skip.
std::vector<StoredConvention> corpus_model(const geo::GeoDictionary& dict) {
  std::vector<StoredConvention> out(5);

  out[0].nc.suffix = "he.net";
  out[0].cls = NcClass::kGood;
  GeoRegex a;
  a.regex = *rx::parse("^.+\\.([a-z]{3})\\d+\\.he\\.net$");
  a.plan.roles = {Role::kIata};
  out[0].nc.regexes.push_back(std::move(a));
  GeoRegex a2;
  a2.regex = *rx::parse("^([a-z]{3})\\d*\\.he\\.net$");
  a2.plan.roles = {Role::kIata};
  out[0].nc.regexes.push_back(std::move(a2));
  out[0].nc.learned[{geo::HintType::kIata, "ash"}] = find_city(dict, "Ashburn", "us", "va");

  out[1].nc.suffix = "windstream.net";
  out[1].cls = NcClass::kPromising;
  GeoRegex b;
  b.regex = *rx::parse("^.+\\.([a-z]{4})\\d+-([a-z]{2})\\.([a-z]{2})\\.windstream\\.net$");
  b.plan.roles = {Role::kClli4, Role::kClli2, Role::kCountryCode};
  out[1].nc.regexes.push_back(std::move(b));

  out[2].nc.suffix = "zayo.com";
  out[2].cls = NcClass::kGood;
  GeoRegex c;
  c.regex = *rx::parse("^([a-z]{3})\\d+\\.zayo\\.com$");
  c.plan.roles = {Role::kIata};
  out[2].nc.regexes.push_back(std::move(c));

  out[3].nc.suffix = "cogentco.com";
  out[3].cls = NcClass::kPromising;
  GeoRegex d;
  d.regex = *rx::parse("^.+\\.([a-z]{3})\\d+\\.([a-z]{2})\\.cogentco\\.com$");
  d.plan.roles = {Role::kIata, Role::kCountryCode};
  out[3].nc.regexes.push_back(std::move(d));

  out[4].nc.suffix = "poor.example";
  out[4].cls = NcClass::kPoor;
  GeoRegex e;
  e.regex = *rx::parse("^([a-z]{3})\\.poor\\.example$");
  e.plan.roles = {Role::kIata};
  out[4].nc.regexes.push_back(std::move(e));
  return out;
}

// Fixed canary corpus: known hits (learned and dictionary-resolved),
// near-misses, and empty/garbage edges.
const std::vector<std::string>& canary_corpus() {
  static const std::vector<std::string> hosts = {
      "100ge1.core1.ash2.he.net",
      "10ge.sea1.he.net",
      "lhr1.he.net",
      "ash.he.net",
      "ge0.unknown.he.net",
      "r1.rest4501-ge.va.windstream.net",
      "r1.hstntx01-ge.tx.windstream.net",
      "lax1.zayo.com",
      "zzz9.zayo.com",
      "te0.jfk2.us.cogentco.com",
      "abc.poor.example",
      "nope.example.org",
      "",
      "x.he.net",
  };
  return hosts;
}

std::string random_host(util::Rng& rng) {
  const auto letters = [&rng](std::size_t n) {
    std::string s;
    for (std::size_t i = 0; i < n; ++i)
      s += static_cast<char>('a' + rng.next_u64() % 26);
    return s;
  };
  const auto digit = [&rng] { return std::to_string(rng.next_u64() % 10); };
  // Half the structured probes use known-resolvable codes so the hit path
  // gets real coverage; the rest are uniform 3-letter codes (mostly misses,
  // a few accidental dictionary hits — exactly the ambiguity we want).
  const auto code = [&](std::size_t n) -> std::string {
    static const char* kKnown[] = {"ash", "lhr", "lax", "jfk", "sea", "ord", "fra", "ams"};
    if (n == 3 && rng.next_u64() % 2 == 0) return kKnown[rng.next_u64() % 8];
    return letters(n);
  };
  switch (rng.next_u64() % 6) {
    case 0:  // he.net shape
      return "core" + digit() + "." + code(3) + digit() + ".he.net";
    case 1:  // windstream shape
      return "r" + digit() + "." + code(4) + digit() + "-ge." + letters(2) +
             ".windstream.net";
    case 2:  // zayo / cogent shapes
      return rng.next_u64() % 2 == 0
                 ? code(3) + digit() + ".zayo.com"
                 : "te0." + code(3) + digit() + "." + letters(2) + ".cogentco.com";
    case 3:  // near-miss: right suffix, wrong shape
      return letters(1 + rng.next_u64() % 8) + ".he.net";
    case 4: {  // unstructured garbage with hostname-ish charset
      std::string s;
      const std::size_t n = rng.next_u64() % 40;
      for (std::size_t i = 0; i < n; ++i) {
        const char* alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.-_";
        s += alphabet[rng.next_u64() % 39];
      }
      return s;
    }
    default:  // unknown domain entirely
      return letters(3) + digit() + "." + letters(6) + ".example";
  }
}

// The byte-level answer the server would put on the wire.
std::string wire_answer(const Geolocator& g, std::string_view host) {
  const auto loc = g.locate(host);
  return loc ? serve::format_hit(*loc) : serve::format_miss();
}

void expect_same_detailed(const Geolocator& a, const Geolocator& b,
                          std::string_view host, std::string_view label) {
  const auto ra = a.locate_detailed(host);
  const auto rb = b.locate_detailed(host);
  ASSERT_EQ(ra.has_value(), rb.has_value()) << label << ": " << host;
  if (!ra) return;
  EXPECT_EQ(ra->best.location, rb->best.location) << label << ": " << host;
  EXPECT_EQ(ra->best.code, rb->best.code) << label << ": " << host;
  EXPECT_EQ(ra->best.role, rb->best.role) << label << ": " << host;
  EXPECT_EQ(ra->best.via_learned, rb->best.via_learned) << label << ": " << host;
  EXPECT_EQ(ra->best.suffix, rb->best.suffix) << label << ": " << host;
  EXPECT_EQ(ra->candidates, rb->candidates) << label << ": " << host;
  EXPECT_EQ(ra->hint, rb->hint) << label << ": " << host;
  EXPECT_EQ(ra->cls, rb->cls) << label << ": " << host;
}

class NcbEquivalence : public ::testing::Test {
 protected:
  std::string tmp(const std::string& name) {
    const std::string p = "test_ncb_eq_" + std::to_string(::getpid()) + "_" + name;
    cleanup_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const std::string& p : cleanup_)
      if (::unlink(p.c_str()) != 0) ::rmdir(p.c_str());
  }
  std::vector<std::string> cleanup_;
};

TEST_F(NcbEquivalence, ThreePathsByteIdenticalOnCanaryAnd10kRandom) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const auto conventions = corpus_model(dict);

  // Path 1: the canonical text cycle — save, re-load, Geolocator::add.
  const std::string text_path = tmp("model.nc");
  std::string error;
  ASSERT_TRUE(core::save_conventions_to_file(text_path, conventions, dict, &error)) << error;
  std::ifstream in(text_path);
  const auto loaded = core::load_conventions(in, dict, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  Geolocator text_geo(dict);
  for (const StoredConvention& sc : *loaded)
    if (sc.cls != NcClass::kPoor) text_geo.add(sc.nc, sc.cls);

  // Path 2: ncb heap (aligned owned buffer, payload-verified).
  const std::string img = core::serialize_conventions_ncb(conventions, dict);
  const auto heap_model = core::NcbModel::from_bytes(img, &error);
  ASSERT_NE(heap_model, nullptr) << error;
  Geolocator heap_geo(dict);
  heap_model->build_geolocator(heap_geo);

  // Path 3: ncb mmap (views over the read-only mapping).
  const std::string bin_path = tmp("model.ncb");
  ASSERT_TRUE(core::save_conventions_ncb_to_file(bin_path, conventions, dict, &error)) << error;
  const auto mapped_model = core::NcbModel::open(bin_path, &error);
  ASSERT_NE(mapped_model, nullptr) << error;
  ASSERT_TRUE(mapped_model->mapped());
  Geolocator mmap_geo(dict);
  mapped_model->build_geolocator(mmap_geo);

  EXPECT_EQ(heap_geo.convention_count(), text_geo.convention_count());
  EXPECT_EQ(mmap_geo.convention_count(), text_geo.convention_count());
  EXPECT_EQ(heap_geo.program_count(), text_geo.program_count());
  EXPECT_EQ(mmap_geo.program_count(), text_geo.program_count());

  for (const std::string& h : canary_corpus()) {
    expect_same_detailed(text_geo, heap_geo, h, "text-vs-heap");
    expect_same_detailed(text_geo, mmap_geo, h, "text-vs-mmap");
  }

  util::Rng rng(20260809);
  std::size_t hits = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string h = random_host(rng);
    const std::string want = wire_answer(text_geo, h);
    ASSERT_EQ(wire_answer(heap_geo, h), want) << "heap diverged on: " << h;
    ASSERT_EQ(wire_answer(mmap_geo, h), want) << "mmap diverged on: " << h;
    if (want != serve::format_miss()) ++hits;
  }
  // The corpus must actually exercise the hit path, or the test is vacuous.
  EXPECT_GT(hits, 100u);
}

TEST_F(NcbEquivalence, ModelStorePathsAnswerIdentically) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const auto conventions = corpus_model(dict);
  std::string error;
  const std::string text_path = tmp("store.nc");
  const std::string bin_path = tmp("store.ncb");
  ASSERT_TRUE(core::save_conventions_to_file(text_path, conventions, dict, &error)) << error;
  ASSERT_TRUE(core::save_conventions_ncb_to_file(bin_path, conventions, dict, &error)) << error;

  serve::ModelStore text_store(dict, text_path);
  ASSERT_FALSE(text_store.reload().has_value());
  const auto text_snap = text_store.current();
  EXPECT_EQ(text_snap->format, "text");
  EXPECT_EQ(text_snap->ncb, nullptr);

  serve::ModelStore mmap_store(dict, bin_path);
  ASSERT_FALSE(mmap_store.reload().has_value());
  const auto mmap_snap = mmap_store.current();
  EXPECT_EQ(mmap_snap->format, "ncb_mmap");
  ASSERT_NE(mmap_snap->ncb, nullptr);
  EXPECT_TRUE(mmap_snap->ncb->mapped());
  EXPECT_GT(mmap_snap->ncb->bytes_mapped(), 0u);

  // The heap path is the archive restore: rolling back to an archived .ncb
  // generation reads it onto the heap with its payload hash verified.
  serve::Metrics metrics;
  serve::ModelStore heap_store(dict, bin_path);
  heap_store.set_metrics(&metrics);
  heap_store.set_keep_generations(2);
  ASSERT_FALSE(heap_store.reload().has_value());  // gen 1, archived as gen-1.ncb
  for (const char* archived : {"/gen-1.ncb", "/gen-2.ncb", ""})
    cleanup_.push_back(bin_path + ".gens" + archived);
  const std::uint64_t ncb_build_us = metrics.load_build_us_ncb.load();
  ASSERT_FALSE(heap_store.rollback(1).has_value());
  const auto heap_snap = heap_store.current();
  EXPECT_EQ(heap_snap->generation, 2u);
  EXPECT_EQ(heap_snap->format, "ncb");
  ASSERT_NE(heap_snap->ncb, nullptr);
  EXPECT_FALSE(heap_snap->ncb->mapped());
  EXPECT_GT(metrics.load_build_us_ncb.load(), ncb_build_us);

  EXPECT_EQ(mmap_snap->convention_count, text_snap->convention_count);
  EXPECT_EQ(heap_snap->convention_count, text_snap->convention_count);
  for (const std::string& h : canary_corpus()) {
    expect_same_detailed(text_snap->geolocator, mmap_snap->geolocator, h, "store text-vs-mmap");
    expect_same_detailed(text_snap->geolocator, heap_snap->geolocator, h, "store text-vs-heap");
  }
}

// A one-suffix IATA model, suffix-parameterized so generations alternate.
std::vector<StoredConvention> iata_model(const std::string& suffix) {
  std::vector<StoredConvention> out(1);
  out[0].nc.suffix = suffix;
  out[0].cls = NcClass::kGood;
  GeoRegex gr;
  std::string pattern = "^([a-z]{3})\\d+\\.";
  for (const char c : suffix) {
    if (c == '.') pattern += "\\.";
    else pattern += c;
  }
  pattern += "$";
  gr.regex = *rx::parse(pattern);
  gr.plan.roles = {Role::kIata};
  out[0].nc.regexes.push_back(std::move(gr));
  return out;
}

// TSan target: 8 readers pin snapshots and run lookup bursts while the main
// thread rewrites the .ncb file and reloads — every reload maps a fresh
// file and drops the store's reference to the old mapping, so the readers'
// pinned snapshots are what keep old mappings alive. Invariants as in
// test_geolocate_concurrent: no race, no torn answers, pinned snapshots
// stay internally consistent.
TEST_F(NcbEquivalence, EightReadersThroughMmapHotSwaps) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const std::string path = tmp("swap.ncb");
  const auto model_a = iata_model("he.net");
  const auto model_b = iata_model("zayo.com");
  std::string error;
  ASSERT_TRUE(core::save_conventions_ncb_to_file(path, model_a, dict, &error)) << error;

  serve::ModelStore store(dict, path);
  ASSERT_FALSE(store.reload().has_value());
  ASSERT_EQ(store.current()->format, "ncb_mmap");

  constexpr int kReaders = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0}, hits{0}, inconsistent{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = store.current();
        const bool is_a = snap->geolocator.convention("he.net") != nullptr;
        const bool is_b = snap->geolocator.convention("zayo.com") != nullptr;
        if (is_a == is_b) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (int i = 0; i < 64; ++i) {
          const auto a = snap->geolocator.locate("lhr1.he.net");
          const auto b = snap->geolocator.locate("lhr1.zayo.com");
          lookups.fetch_add(2, std::memory_order_relaxed);
          if (a) hits.fetch_add(1, std::memory_order_relaxed);
          if (b) hits.fetch_add(1, std::memory_order_relaxed);
          if (a.has_value() != is_a || b.has_value() != is_b)
            inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // 60 full rewrite+reload cycles, then keep serving until every reader got
  // at least one burst in.
  for (int g = 0; g < 60; ++g) {
    ASSERT_TRUE(core::save_conventions_ncb_to_file(path, g % 2 == 0 ? model_b : model_a,
                                                   dict, &error))
        << error;
    ASSERT_FALSE(store.reload().has_value());
  }
  while (lookups.load(std::memory_order_relaxed) < kReaders * 128u)
    std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(store.current()->format, "ncb_mmap");
  EXPECT_GE(store.generation(), 61u);
}

}  // namespace
}  // namespace hoiho
