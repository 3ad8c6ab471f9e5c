// The checkpoint as the learner's durable result store (DESIGN.md §14):
//
//   * kill-at-every-boundary — a run that dies on any batch commit resumes
//     from the WAL and produces a byte-identical final model;
//   * per-suffix reuse — a new snapshot of the world relearns only the
//     suffixes that changed, and another world under the same key reuses
//     nothing;
//   * torn tail — bytes past the last committed manifest state are
//     truncated on open, not treated as corruption;
//   * corrupt manifest / key mismatch (config or dictionary content) — the
//     whole store is discarded and the run starts empty (never trusts a
//     half-valid WAL);
//   * counters — committed/resumed/discarded surface in the registry.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/hoiho.h"
#include "core/nc_io.h"
#include "core/ncb.h"
#include "geo/dictionary_io.h"
#include "obs/metrics.h"
#include "sim/streaming.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace hoiho::core {
namespace {

sim::StreamingWorldConfig small_config() {
  sim::StreamingWorldConfig config;
  config.seed = 77;
  config.suffixes = 40;
  config.target_hostnames = 1200;
  config.max_hostnames_per_suffix = 256;
  config.vp_count = 16;
  config.batch_hostname_budget = 300;
  config.traits.geohint_scheme_rate = 0.8;
  config.traits.hostname_rate = 0.85;
  return config;
}

// The exact bytes a finished run would publish as its model file (minus the
// checksum footer, which save_conventions_to_file adds). "Byte-identical
// resume" is asserted against this serialization.
std::string model_bytes(const HoihoResult& result) {
  std::vector<StoredConvention> stored;
  for (const SuffixResult& sr : result.suffixes)
    if (sr.usable()) stored.push_back(StoredConvention{sr.nc, sr.cls});
  std::ostringstream os;
  save_conventions(os, stored, geo::builtin_dictionary());
  return os.str();
}

// Every per-suffix outcome a streamed run retains, including the eval
// counts the model file does not carry — a stricter equality than the
// serialized model alone.
std::string compact_dump(const HoihoResult& result) {
  std::ostringstream os;
  for (const SuffixResult& sr : result.suffixes) {
    os << sr.suffix << " hostnames=" << sr.hostname_count << " tagged=" << sr.tagged_count
       << " cls=" << to_string(sr.cls) << " tp=" << sr.eval.counts.tp
       << " fp=" << sr.eval.counts.fp << " fn=" << sr.eval.counts.fn
       << " unk=" << sr.eval.counts.unk << " none=" << sr.eval.counts.none
       << " sets=" << sr.eval.regex_unique_tp.size()
       << " uniq=" << sr.eval.unique_tp_codes.size() << "\n";
    for (const GeoRegex& gr : sr.nc.regexes)
      os << "  rx " << gr.to_string() << " (" << gr.plan.to_string() << ")\n";
    for (const LearnedHint& lh : sr.learned)
      os << "  learned " << static_cast<int>(lh.type) << ":" << lh.code << "->" << lh.location
         << "\n";
  }
  return os.str();
}

struct StreamRun {
  HoihoResult result;
  obs::Snapshot snap;
};

// Streams `wc` (rendered against the built-in dictionary) through a
// learner on `dict`, checkpointed under `dir` unless it is empty.
StreamRun run_with_checkpoint(const std::string& dir,
                              const sim::StreamingWorldConfig& wc = small_config(),
                              const geo::GeoDictionary& dict = geo::builtin_dictionary()) {
  sim::StreamingWorld world(geo::builtin_dictionary(), wc);
  HoihoConfig hc;
  hc.threads = 1;
  hc.checkpoint_dir = dir;
  obs::Registry registry;
  hc.registry = &registry;
  StreamRun run;
  run.result = Hoiho(dict, hc).run_stream(world);
  run.snap = registry.snapshot();
  return run;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/MANIFEST").c_str());
  ::rmdir(dir.c_str());
  return dir;
}

TEST(Checkpoint, KillAtEveryBatchBoundaryResumesByteIdentical) {
  // Golden: one uninterrupted checkpointed run.
  const StreamRun golden = run_with_checkpoint(fresh_dir("ckpt_golden"));
  const std::string golden_model = model_bytes(golden.result);
  const std::string golden_dump = compact_dump(golden.result);
  const std::uint64_t batches = golden.snap.value("pipeline_stream_batches");
  ASSERT_GT(batches, 2u) << "need multiple batches to exercise boundaries";
  EXPECT_EQ(golden.snap.value("checkpoint_batches_committed"), batches);
  EXPECT_EQ(golden.snap.value("checkpoint_commit_failures"), 0u);
  EXPECT_FALSE(golden_model.empty());

  for (std::uint64_t k = 1; k <= batches; ++k) {
    const std::string dir = fresh_dir("ckpt_kill_" + std::to_string(k));

    // "Crash" on the k-th commit: commits 1..k-1 land, the k-th batch's
    // results are dropped exactly as a SIGKILL at that instant would.
    ASSERT_TRUE(util::failpoint::configure(
        "checkpoint_write", "error:EIO,every=" + std::to_string(k) + ",times=1"));
    const StreamRun killed = run_with_checkpoint(dir);
    util::failpoint::reset();
    EXPECT_EQ(killed.snap.value("checkpoint_commit_failures"), 1u) << "boundary " << k;
    EXPECT_EQ(killed.snap.value("checkpoint_batches_committed"), k - 1);
    EXPECT_LT(killed.result.suffixes.size(), golden.result.suffixes.size());

    // Resume: a fresh process replays only the uncommitted batches.
    const StreamRun resumed = run_with_checkpoint(dir);
    EXPECT_EQ(resumed.snap.value("checkpoint_batches_resumed"), k - 1) << "boundary " << k;
    EXPECT_EQ(resumed.snap.value("checkpoint_discarded"), 0u);
    EXPECT_EQ(resumed.snap.value("checkpoint_batches_committed"), batches - (k - 1));
    EXPECT_EQ(model_bytes(resumed.result), golden_model) << "boundary " << k;
    EXPECT_EQ(compact_dump(resumed.result), golden_dump) << "boundary " << k;
  }
}

TEST(Checkpoint, ResumingACompleteRunReplaysNothing) {
  const std::string dir = fresh_dir("ckpt_complete");
  const StreamRun first = run_with_checkpoint(dir);
  const std::uint64_t batches = first.snap.value("pipeline_stream_batches");

  const StreamRun again = run_with_checkpoint(dir);
  EXPECT_EQ(again.snap.value("checkpoint_batches_resumed"), batches);
  EXPECT_EQ(again.snap.value("checkpoint_batches_committed"), 0u);
  EXPECT_EQ(again.snap.value("checkpoint_results_resumed"), first.result.suffixes.size());
  EXPECT_EQ(compact_dump(again.result), compact_dump(first.result));
  EXPECT_EQ(model_bytes(again.result), model_bytes(first.result));
}

TEST(Checkpoint, TornWalTailIsTruncatedNotFatal) {
  const std::string dir = fresh_dir("ckpt_torn");
  ASSERT_TRUE(util::failpoint::configure("checkpoint_write", "error:EIO,every=3,times=1"));
  run_with_checkpoint(dir);
  util::failpoint::reset();

  // A crash mid-append leaves bytes past the committed manifest state; they
  // must be dropped on open, not treated as corruption.
  {
    std::ofstream wal(dir + "/wal.log", std::ios::app | std::ios::binary);
    ASSERT_TRUE(wal.is_open());
    wal << "B,9999,1\nGARBAGE que no parsea\n";
  }
  const StreamRun resumed = run_with_checkpoint(dir);
  EXPECT_EQ(resumed.snap.value("checkpoint_discarded"), 0u);
  EXPECT_EQ(resumed.snap.value("checkpoint_batches_resumed"), 2u);

  const StreamRun golden = run_with_checkpoint(fresh_dir("ckpt_torn_golden"));
  EXPECT_EQ(model_bytes(resumed.result), model_bytes(golden.result));
  EXPECT_EQ(compact_dump(resumed.result), compact_dump(golden.result));
}

TEST(Checkpoint, CorruptManifestDiscardsAndStartsFresh) {
  const std::string dir = fresh_dir("ckpt_badmanifest");
  run_with_checkpoint(dir);

  std::string manifest;
  {
    std::ifstream in(dir + "/MANIFEST", std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    manifest = os.str();
  }
  ASSERT_FALSE(manifest.empty());
  manifest[manifest.size() / 2] ^= 0x20;  // flip one bit under the checksum
  {
    std::ofstream out(dir + "/MANIFEST", std::ios::binary | std::ios::trunc);
    out << manifest;
  }

  const StreamRun rerun = run_with_checkpoint(dir);
  EXPECT_EQ(rerun.snap.value("checkpoint_discarded"), 1u);
  EXPECT_EQ(rerun.snap.value("checkpoint_batches_resumed"), 0u);
  // The discarded state is replaced: the rerun recommits every batch and the
  // model matches an uninterrupted run.
  EXPECT_EQ(rerun.snap.value("checkpoint_batches_committed"),
            rerun.snap.value("pipeline_stream_batches"));
  const StreamRun golden = run_with_checkpoint(fresh_dir("ckpt_badmanifest_golden"));
  EXPECT_EQ(model_bytes(rerun.result), model_bytes(golden.result));
}

TEST(Checkpoint, ShortWalDiscardsAndStartsFresh) {
  const std::string dir = fresh_dir("ckpt_shortwal");
  run_with_checkpoint(dir);
  // Truncate the WAL below what the manifest committed: the prefix hash
  // cannot verify, so the checkpoint must be discarded wholesale.
  {
    std::ifstream in(dir + "/wal.log", std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    const std::string wal = os.str();
    std::ofstream out(dir + "/wal.log", std::ios::binary | std::ios::trunc);
    out << wal.substr(0, wal.size() / 2);
  }
  const StreamRun rerun = run_with_checkpoint(dir);
  EXPECT_EQ(rerun.snap.value("checkpoint_discarded"), 1u);
  EXPECT_EQ(rerun.snap.value("checkpoint_batches_resumed"), 0u);
}

TEST(Checkpoint, ConfigChangeInvalidatesTheCheckpoint) {
  const std::string dir = fresh_dir("ckpt_sig");
  run_with_checkpoint(dir);

  // Same directory, different learning config: the key differs, so reuse
  // would splice results from another run — discard instead.
  sim::StreamingWorld world(geo::builtin_dictionary(), small_config());
  HoihoConfig hc;
  hc.threads = 1;
  hc.checkpoint_dir = dir;
  hc.learn_top_n = hc.learn_top_n + 1;
  obs::Registry registry;
  hc.registry = &registry;
  Hoiho(geo::builtin_dictionary(), hc).run_stream(world);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("checkpoint_discarded"), 1u);
  EXPECT_EQ(snap.value("checkpoint_batches_resumed"), 0u);
}

TEST(Checkpoint, AnotherWorldReusesNothing) {
  const std::string dir = fresh_dir("ckpt_world");
  run_with_checkpoint(dir);

  // Seed 78 draws the same VP set as seed 77 (make_vps depends only on the
  // dictionary and the VP count), so seed 77's store stays under the same
  // key. Reuse goes by suffix content, so nothing of it may be spliced in.
  sim::StreamingWorldConfig wc = small_config();
  wc.seed = 78;
  const StreamRun other = run_with_checkpoint(dir, wc);
  const StreamRun plain = run_with_checkpoint("", wc);
  EXPECT_EQ(other.snap.value("checkpoint_discarded"), 0u);
  EXPECT_EQ(other.snap.value("delta_suffixes_reused"), 0u);
  EXPECT_EQ(other.snap.value("pipeline_suffixes"), plain.snap.value("pipeline_suffixes"));
  EXPECT_EQ(model_bytes(other.result), model_bytes(plain.result));
  EXPECT_EQ(compact_dump(other.result), compact_dump(plain.result));
}

TEST(Checkpoint, NewSnapshotReusesUnchangedSuffixes) {
  // The next snapshot of the same world (the paper learns consecutive
  // ITDKs) changes only its churned suffixes: learned against the first
  // snapshot's store, it relearns those and reuses every other suffix.
  const std::string dir = fresh_dir("ckpt_snapshot");
  run_with_checkpoint(dir);

  sim::StreamingWorldConfig wc = small_config();
  wc.churn_seed = 4242;
  wc.churn_frac = 0.2;
  const std::size_t churned =
      sim::StreamingWorld(geo::builtin_dictionary(), wc).churned_suffixes().size();
  const StreamRun next = run_with_checkpoint(dir, wc);
  const StreamRun plain = run_with_checkpoint("", wc);
  const std::uint64_t learned = next.snap.value("pipeline_suffixes");
  EXPECT_EQ(next.snap.value("checkpoint_discarded"), 0u);
  EXPECT_GT(learned, 0u);
  EXPECT_LE(learned, churned);
  EXPECT_EQ(learned + next.snap.value("delta_suffixes_reused"),
            plain.snap.value("pipeline_suffixes"));
  EXPECT_EQ(model_bytes(next.result), model_bytes(plain.result));
  EXPECT_EQ(compact_dump(next.result), compact_dump(plain.result));
}

TEST(Checkpoint, DictionaryEditDiscardsTheStore) {
  // An edit that keeps the dictionary's size: every latitude moved by 10°.
  std::ostringstream saved;
  geo::save_dictionary(saved, geo::builtin_dictionary());
  std::istringstream lines(saved.str());
  std::ostringstream moved_csv;
  for (std::string line; std::getline(lines, line);) {
    util::CsvRow row = util::parse_csv_line(line);
    if (row.size() < 5 || row[0] != "L") {
      moved_csv << line << "\n";
      continue;
    }
    const double lat = std::stod(row[4]);
    row[4] = util::fmt_double(lat > 0 ? lat - 10 : lat + 10, 4);
    util::write_csv_row(moved_csv, row);
  }
  const auto load_moved = [&] {
    std::istringstream in(moved_csv.str());
    return geo::load_dictionary(in);
  };
  const std::optional<geo::GeoDictionary> moved = load_moved();
  ASSERT_TRUE(moved.has_value());
  ASSERT_EQ(moved->size(), geo::builtin_dictionary().size());

  const std::string dir = fresh_dir("ckpt_dict");
  const StreamRun original = run_with_checkpoint(dir);
  const StreamRun plain = run_with_checkpoint("", small_config(), *moved);
  ASSERT_NE(compact_dump(plain.result), compact_dump(original.result))
      << "the edit must change what is learned";

  // Results learned against the original coordinates are never reused.
  const StreamRun edited = run_with_checkpoint(dir, small_config(), *moved);
  EXPECT_EQ(edited.snap.value("checkpoint_discarded"), 1u);
  EXPECT_EQ(edited.snap.value("checkpoint_batches_resumed"), 0u);
  EXPECT_EQ(model_bytes(edited.result), model_bytes(plain.result));
  EXPECT_EQ(compact_dump(edited.result), compact_dump(plain.result));

  // The key is the dictionary's content, not its identity: the same CSV
  // loaded again reuses everything.
  const std::optional<geo::GeoDictionary> again = load_moved();
  ASSERT_TRUE(again.has_value());
  const StreamRun reloaded = run_with_checkpoint(dir, small_config(), *again);
  EXPECT_EQ(reloaded.snap.value("checkpoint_discarded"), 0u);
  EXPECT_EQ(reloaded.snap.value("pipeline_suffixes"), 0u);
  EXPECT_EQ(compact_dump(reloaded.result), compact_dump(plain.result));
}

TEST(Checkpoint, ParallelRunsCheckpointIdenticallyToSequential) {
  const StreamRun seq = run_with_checkpoint(fresh_dir("ckpt_seq"));

  sim::StreamingWorld world(geo::builtin_dictionary(), small_config());
  HoihoConfig hc;
  hc.threads = 8;
  hc.checkpoint_dir = fresh_dir("ckpt_par");
  obs::Registry registry;
  hc.registry = &registry;
  const HoihoResult par = Hoiho(geo::builtin_dictionary(), hc).run_stream(world);
  EXPECT_EQ(model_bytes(par), model_bytes(seq.result));
  EXPECT_EQ(compact_dump(par), compact_dump(seq.result));

  // And the parallel run's WAL resumes under a sequential config: results
  // are thread-count invariant, so the store keys must agree.
  const StreamRun resumed = run_with_checkpoint(hc.checkpoint_dir);
  EXPECT_EQ(resumed.snap.value("checkpoint_discarded"), 0u);
  EXPECT_EQ(resumed.snap.value("checkpoint_batches_resumed"),
            seq.snap.value("pipeline_stream_batches"));
  EXPECT_EQ(model_bytes(resumed.result), model_bytes(seq.result));
}

TEST(Checkpoint, UncheckpointedRunsAreUnaffected) {
  sim::StreamingWorld world(geo::builtin_dictionary(), small_config());
  HoihoConfig hc;
  hc.threads = 1;
  obs::Registry registry;
  hc.registry = &registry;
  const HoihoResult result = Hoiho(geo::builtin_dictionary(), hc).run_stream(world);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("checkpoint_batches_committed"), 0u);
  EXPECT_EQ(snap.value("checkpoint_discarded"), 0u);
  const StreamRun checkpointed = run_with_checkpoint(fresh_dir("ckpt_off_golden"));
  EXPECT_EQ(model_bytes(result), model_bytes(checkpointed.result));
}

TEST(Checkpoint, RunStreamEmitsModelOutInTheExtensionFormat) {
  // The learner writes the serving model itself — ".ncb" picks the binary
  // format, and the emitted file round-trips through the binary loader to
  // the same conventions the run produced.
  const std::string path = ::testing::TempDir() + "/stream_model_out.ncb";
  std::remove(path.c_str());
  sim::StreamingWorld world(geo::builtin_dictionary(), small_config());
  HoihoConfig hc;
  hc.threads = 1;
  hc.model_out = path;
  obs::Registry registry;
  hc.registry = &registry;
  const HoihoResult result = Hoiho(geo::builtin_dictionary(), hc).run_stream(world);
  EXPECT_EQ(registry.snapshot().value("pipeline_model_save_failures"), 0u);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "run_stream did not write " << path;
  std::ostringstream os;
  os << in.rdbuf();
  ASSERT_EQ(detect_model_format(os.str()), ModelFormat::kNcb);

  std::string err;
  const auto model = NcbModel::from_bytes(os.str(), &err);
  ASSERT_NE(model, nullptr) << err;
  std::size_t expected = 0;
  for (const SuffixResult& sr : result.suffixes)
    if (sr.has_nc()) ++expected;
  EXPECT_EQ(model->convention_count(), expected);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedRunDoesNotOverwriteModelOut) {
  // A commit failure leaves a prefix of the stream, not the model the
  // caller asked for: the previous good file must survive untouched.
  const std::string path = ::testing::TempDir() + "/stream_model_trunc.ncb";
  const std::string sentinel = "previous good model bytes";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << sentinel;
  }
  const std::string dir = fresh_dir("ckpt_model_trunc");
  sim::StreamingWorld world(geo::builtin_dictionary(), small_config());
  HoihoConfig hc;
  hc.threads = 1;
  hc.checkpoint_dir = dir;
  hc.model_out = path;
  ASSERT_TRUE(util::failpoint::configure("checkpoint_write", "error:EIO,every=2,times=1"));
  Hoiho(geo::builtin_dictionary(), hc).run_stream(world);
  util::failpoint::reset();

  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str(), sentinel);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hoiho::core
