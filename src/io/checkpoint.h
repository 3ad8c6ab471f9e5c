// The learner's durable result store (DESIGN.md §14).
//
// An XL run_stream is tens of minutes of work; a SIGKILL at minute 40 used
// to lose all of it. A Checkpoint makes learned results durable as the run
// goes: after each batch the learner appends the SuffixResults that batch
// learned to a write-ahead log and atomically rewrites a small manifest
// that commits the WAL prefix. Every result carries its suffix fingerprint
// (core/delta.h), and the whole store carries one key: the learner config,
// the dictionary's content and the VP set. Under a matching key, run_stream
// reuses every stored result whose fingerprint and suffix match an
// incoming group and learns the rest — so a killed run re-opened on the
// same directory relearns only what it had not committed, and a run over a
// new snapshot of the world relearns only the suffixes that changed. The
// learner is deterministic per suffix, so the final saved model is
// byte-identical to an uncheckpointed run (tests/test_checkpoint.cc holds
// it to that). The store only grows: each run appends what it learned.
//
// Layout under the checkpoint directory:
//
//   wal.log    append-only, fsynced before every manifest rewrite
//   MANIFEST   rewritten atomically (tmp + fsync + rename) per commit
//
// The WAL is line-oriented in the nc_io dialect, one record block per
// commit:
//
//   B,<batch_index>,<result_count>          batch header (commit sequence)
//   X,<suffix>,<class>,<hostname_count>,<tagged_count>,<sets>,<tp>,<fp>,
//     <fn>,<unk>,<none>,<budget_exhausted>,<fingerprint hex16>
//                                           one per SuffixResult
//   R,<plan>,<regex>                        the suffix's NC regexes
//   L,<dict-type>,<code>,<city>,<state>,<country>      NC learned geohints
//   H,<dict-type>,<code>,<tp>,<fp>,<existing_tp>,<city>,<state>,<country>
//                                           stage-4 LearnedHint evidence
//   U,<code>                                eval.unique_tp_codes entries
//   V,<regex_index>,<code>                  eval.regex_unique_tp entries
//   C,<batch_index>                         batch trailer
//
// Places are stored by name (like nc_io L records) and re-resolved against
// the load-time dictionary, so a checkpoint survives process restarts but
// is discarded if any place no longer resolves — reuse must reproduce the
// results exactly or not at all.
//
// The MANIFEST is the commit point: it records the key, the committed
// batch and result counts, the exact WAL byte length, and the FNV-1a of
// that prefix, and carries its own "# checksum,fnv1a" footer. A crash
// between the WAL append and the manifest rename leaves a tail beyond the
// committed length; open() truncates it away and that batch is simply
// learned again. Any corruption — manifest checksum, WAL prefix hash, a
// record that fails strict parsing, a key mismatch — discards the whole
// store and the run starts empty (never a partial load).
//
// Fault injection: commit_batch() consults the "checkpoint_write" failpoint
// (util/failpoint) before touching the WAL, so crash drills can kill or
// fail a run at an exact batch boundary.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/hoiho.h"

namespace hoiho::io {

class Checkpoint {
 public:
  // What open() recovered: `batches` commits worth of `results`, in commit
  // order — the caller's reuse source. `discarded` is true when a prior
  // checkpoint existed but was invalid or under another key (note says
  // why).
  struct Resume {
    std::size_t batches = 0;
    std::vector<core::SuffixResult> results;
    bool discarded = false;
    std::string note;
  };

  // `signature` is the store key: everything besides a suffix's own inputs
  // that shapes its result (config, dictionary content, VP set); a store
  // written under another key is never loaded. `dict` spells out and
  // re-resolves stored places and must be the dictionary the run learns
  // against.
  Checkpoint(std::string dir, std::uint64_t signature, const geo::GeoDictionary& dict);
  ~Checkpoint();

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  // Loads committed state, creating the directory and files on first use.
  // Never fails the run: an unreadable or invalid checkpoint is discarded
  // and the store starts empty. Call exactly once, before the loop.
  Resume open();

  // Appends the results one batch learned to the WAL (fsync), then
  // atomically commits them via the manifest. False with *error on any
  // write failure — the caller decides whether to stop (durability-first)
  // or continue uncheckpointed; this object refuses further commits either
  // way.
  bool commit_batch(std::span<const core::SuffixResult> results,
                    std::string* error = nullptr);

 private:
  bool load_existing(Resume* out, std::string* why);
  bool start_fresh(std::string* why);
  bool rewrite_manifest(std::string* why);

  std::string dir_;
  std::uint64_t sig_;
  const geo::GeoDictionary& dict_;

  int wal_fd_ = -1;
  bool ready_ = false;           // open() succeeded and commits are allowed
  std::size_t batches_ = 0;      // commit count
  std::size_t results_ = 0;      // committed SuffixResult count
  std::uint64_t wal_bytes_ = 0;  // committed WAL prefix length
  std::uint64_t wal_hash_ = 0;   // FNV-1a of that prefix
};

}  // namespace hoiho::io
