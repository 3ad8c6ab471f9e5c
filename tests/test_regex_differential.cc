// Differential tests holding the compiled regex engine (rx::Program,
// rx::SetMatcher) byte-identical to the AST backtracker (rx::match) — the
// oracle the rest of the system was validated against. Random dialect
// patterns are run over random and mutated hostname-like subjects; match
// verdicts, capture spans, per-node spans, and budget-exhaustion behaviour
// must all agree, pair for pair.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hoiho.h"
#include "geo/dictionary.h"
#include "regex/matcher.h"
#include "regex/parser.h"
#include "regex/program.h"
#include "regex/set_matcher.h"
#include "sim/probing.h"
#include "util/rng.h"

namespace hoiho {
namespace {

// Random pattern within the full dialect — unlike the std::regex agreement
// test, possessive quantifiers are included (both engines implement them)
// and multiple capture groups are allowed.
std::string random_pattern(util::Rng& rng) {
  static const char* pieces[] = {
      "[a-z]{3}", "[a-z]{2}",  "[a-z]+",   "[a-z]++", "\\d+",  "\\d*",
      "\\d++",    "[a-z\\d]+", "[^\\.]+",  "[^-]+",   "xe",    "core",
      "-",        "\\.",       "net",      "gw",      "[a-z]*",
  };
  std::string out = "^";
  const std::size_t n = 2 + rng.next_below(5);
  for (std::size_t i = 0; i < n; ++i) {
    const char* piece = pieces[rng.next_below(std::size(pieces))];
    if (rng.next_bool(0.35)) {
      out += "(";
      out += piece;
      out += ")";
    } else {
      out += piece;
    }
  }
  out += "$";
  return out;
}

std::string random_subject(util::Rng& rng) {
  static const char* atoms[] = {"xe", "core", "lhr", "12", "3",  "-",
                                ".",  "net",  "a",   "gw", "ae0"};
  std::string out;
  const std::size_t n = 1 + rng.next_below(6);
  for (std::size_t i = 0; i < n; ++i) out += atoms[rng.next_below(std::size(atoms))];
  return out;
}

// Point mutation: insert, delete, or replace one character, so subjects
// hover around the match/non-match boundary instead of being wholly random.
std::string mutate(std::string s, util::Rng& rng) {
  if (s.empty()) return s;
  static const char alphabet[] = "abz019.-";
  const std::size_t at = rng.next_below(s.size());
  switch (rng.next_below(3)) {
    case 0: s.insert(at, 1, alphabet[rng.next_below(std::size(alphabet) - 1)]); break;
    case 1: s.erase(at, 1); break;
    default: s[at] = alphabet[rng.next_below(std::size(alphabet) - 1)];
  }
  return s;
}

// One (pattern, subject) comparison between the oracle and the compiled
// engine; returns false (with a test failure recorded) on any divergence.
void check_pair(const rx::Regex& regex, const rx::Program& program, const std::string& pattern,
                const std::string& subject, rx::MatchScratch& scratch) {
  std::vector<rx::Capture> oracle_spans;
  const rx::MatchResult oracle = rx::match_with_spans(regex, subject, oracle_spans);

  // Engine-level parity (no prefilters): verdict, budget accounting,
  // captures, and per-node spans must all be identical.
  const bool compiled = program.run(subject, scratch);
  ASSERT_EQ(compiled, oracle.matched) << pattern << " on \"" << subject << "\"";
  ASSERT_EQ(scratch.budget_exhausted, oracle.budget_exhausted)
      << pattern << " on \"" << subject << "\"";
  if (oracle.matched) {
    std::vector<rx::Capture> caps(program.capture_count());
    program.captures(scratch, caps.data());
    ASSERT_EQ(caps.size(), oracle.captures.size()) << pattern;
    for (std::size_t g = 0; g < caps.size(); ++g) {
      ASSERT_EQ(caps[g].begin, oracle.captures[g].begin)
          << pattern << " group " << g << " on \"" << subject << "\"";
      ASSERT_EQ(caps[g].end, oracle.captures[g].end)
          << pattern << " group " << g << " on \"" << subject << "\"";
    }
    ASSERT_EQ(oracle_spans.size(), program.node_count());
    for (std::size_t i = 0; i < oracle_spans.size(); ++i) {
      const rx::Capture span = program.node_span(scratch, i);
      ASSERT_EQ(span.begin, oracle_spans[i].begin)
          << pattern << " node " << i << " on \"" << subject << "\"";
      ASSERT_EQ(span.end, oracle_spans[i].end)
          << pattern << " node " << i << " on \"" << subject << "\"";
    }
  }

  // With prefilters the verdict must not change (prefilters are sound:
  // they only reject subjects the engine would reject too).
  ASSERT_EQ(program.match(subject, scratch), oracle.matched)
      << pattern << " on \"" << subject << "\" (prefilter path)";
}

TEST(RegexDifferential, ProgramAgreesWithBacktrackerOn10kPairs) {
  std::size_t pairs = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed * 7919);
    rx::MatchScratch scratch;
    for (int round = 0; round < 80; ++round) {
      const std::string pattern = random_pattern(rng);
      const auto regex = rx::parse(pattern);
      ASSERT_TRUE(regex.has_value()) << pattern;
      const rx::Program program = rx::Program::compile(*regex);
      std::string subject = random_subject(rng);
      for (int s = 0; s < 30; ++s) {
        check_pair(*regex, program, pattern, subject, scratch);
        ++pairs;
        // Alternate fresh subjects with mutation chains around the boundary.
        subject = rng.next_bool(0.5) ? random_subject(rng) : mutate(subject, rng);
      }
    }
  }
  EXPECT_GE(pairs, 10000u);
}

TEST(RegexDifferential, SetMatcherAgreesWithPerRegexOracle) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed * 104729);
    rx::MatchScratch scratch;
    rx::SetMatches matches;
    for (int round = 0; round < 20; ++round) {
      std::vector<rx::Regex> regexes;
      std::vector<std::string> patterns;
      rx::SetMatcher set;
      const std::size_t k = 2 + rng.next_below(30);
      for (std::size_t i = 0; i < k; ++i) {
        patterns.push_back(random_pattern(rng));
        regexes.push_back(*rx::parse(patterns.back()));
        set.add(regexes.back());
      }
      set.finalize();
      std::string subject = random_subject(rng);
      for (int s = 0; s < 25; ++s) {
        set.match_all(subject, scratch, matches);
        std::size_t hit = 0;
        for (std::size_t i = 0; i < regexes.size(); ++i) {
          const rx::MatchResult oracle = rx::match(regexes[i], subject);
          const bool in_set =
              hit < matches.indices.size() && matches.indices[hit] == i;
          ASSERT_EQ(in_set, oracle.matched)
              << patterns[i] << " on \"" << subject << "\"";
          if (!in_set) continue;
          const auto caps = matches.captures(hit);
          ASSERT_EQ(caps.size(), oracle.captures.size()) << patterns[i];
          for (std::size_t g = 0; g < caps.size(); ++g) {
            ASSERT_EQ(caps[g].begin, oracle.captures[g].begin)
                << patterns[i] << " group " << g << " on \"" << subject << "\"";
            ASSERT_EQ(caps[g].end, oracle.captures[g].end)
                << patterns[i] << " group " << g << " on \"" << subject << "\"";
          }
          ++hit;
        }
        ASSERT_EQ(hit, matches.indices.size()) << "spurious hit on \"" << subject << "\"";
        subject = rng.next_bool(0.5) ? random_subject(rng) : mutate(subject, rng);
      }
    }
  }
}

// --- budget exhaustion -------------------------------------------------------

// Four unbounded greedy classes force the backtracker through ~n^3/6 split
// points before it can conclude the trailing literal never matches; at
// n = 250 that exceeds the work bound. Both engines must report the abandoned
// search via budget_exhausted instead of a silent (inconclusive) non-match.
TEST(RegexBudget, PathologicalPatternSetsExhaustedOnBothEngines) {
  const auto regex = rx::parse("^[a-z\\d]+[a-z\\d]+[a-z\\d]+[a-z\\d]+\\.x$");
  ASSERT_TRUE(regex.has_value());
  const std::string subject(250, 'a');

  const rx::MatchResult oracle = rx::match(*regex, subject);
  EXPECT_FALSE(oracle.matched);
  EXPECT_TRUE(oracle.budget_exhausted);

  const rx::Program program = rx::Program::compile(*regex);
  rx::MatchScratch scratch;
  EXPECT_FALSE(program.run(subject, scratch));
  EXPECT_TRUE(scratch.budget_exhausted);

  // The prefilter path rejects this subject outright (it cannot end in
  // ".x"), so the compiled full-match path never starts the doomed search —
  // and must not report a stale exhaustion flag from the run above.
  EXPECT_FALSE(program.match(subject, scratch));
  EXPECT_FALSE(scratch.budget_exhausted);
}

TEST(RegexBudget, EvaluatorCountsExhaustedHostnames) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  measure::Measurements meas({}, 1);
  core::Evaluator evaluator(dict, meas);

  core::NamingConvention nc;
  nc.suffix = "qq.net";
  core::GeoRegex gr;
  // Five unbounded classes (dots allowed, so they roam across labels) that
  // must leave exactly one digit before the literal tail.
  gr.regex = *rx::parse("^[^-]*[^-]*[^-]*[^-]*[^-]*\\d\\.qq\\.net$");
  gr.plan.roles = {core::Role::kIata};
  nc.regexes.push_back(std::move(gr));

  // A subject that survives every prefilter (right tail, all required bytes,
  // DNS-valid 60-char labels) but has no digit anywhere, so both engines
  // grind through all class splits until the work bound trips.
  const std::string label(60, 'a');
  const std::string pathological = label + "." + label + "." + label + ".qq.net";
  std::string canonical;
  const auto host = dns::parse_hostname(pathological, canonical);
  ASSERT_TRUE(host.has_value());
  core::TaggedHostname th;
  th.ref.hostname = &*host;

  const core::NcEvaluation eval = evaluator.evaluate(nc, {&th, 1});
  EXPECT_EQ(eval.counts.budget_exhausted, 1u);
  ASSERT_EQ(eval.per_hostname.size(), 1u);
  EXPECT_TRUE(eval.per_hostname[0].budget_exhausted);
  bool oracle_exhausted = false;
  EXPECT_FALSE(core::extract(nc, *host, &oracle_exhausted).has_value());
  EXPECT_TRUE(oracle_exhausted);
}

// --- engine oracle at evaluator level ---------------------------------------

// What the pipeline learns is scored on the compiled engine; for every NC it
// learns on this world and every hostname of the NC's suffix, the evaluator's
// extraction must be the AST engine's (core::extract), exhaustion included.
TEST(RegexDifferential, EvaluatorExtractionMatchesAstOracle) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  sim::WorldConfig wc;
  wc.seed = 20260805;
  wc.operators = 10;
  wc.geohint_scheme_rate = 0.9;
  const sim::World world = sim::generate_world(dict, wc);
  const measure::Measurements pings = sim::probe_pings(world, {});

  core::HoihoConfig config;
  config.threads = 1;
  const core::HoihoResult result = core::Hoiho(dict, config).run(world.topology, pings);
  const core::Evaluator evaluator(dict, pings);
  std::size_t ncs = 0, hostnames = 0, extracted = 0;
  for (const core::SuffixResult& sr : result.suffixes) {
    if (!sr.has_nc()) continue;
    ++ncs;
    for (const core::TaggedHostname& th : sr.tagged) {
      ++hostnames;
      const core::HostnameEval ev = evaluator.evaluate_one(sr.nc, th);
      bool exhausted = false;
      const std::optional<core::Extraction> oracle =
          core::extract(sr.nc, *th.ref.hostname, &exhausted);
      const std::string_view host = th.ref.hostname->full;
      EXPECT_EQ(ev.budget_exhausted, exhausted) << host;
      if (!oracle) {
        EXPECT_EQ(ev.regex_index, -1) << host;
        EXPECT_TRUE(ev.code.empty() && ev.cc.empty() && ev.st.empty()) << host;
        continue;
      }
      ++extracted;
      EXPECT_EQ(ev.regex_index, oracle->regex_index) << host;
      EXPECT_EQ(ev.code, oracle->code) << host;
      EXPECT_EQ(ev.cc, oracle->cc) << host;
      EXPECT_EQ(ev.st, oracle->st) << host;
    }
  }
  EXPECT_GT(ncs, 0u);
  EXPECT_GT(extracted, 0u);
  EXPECT_GT(hostnames, extracted);  // non-matching hostnames are covered too
}

}  // namespace
}  // namespace hoiho
