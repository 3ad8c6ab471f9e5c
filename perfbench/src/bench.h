// Shared pieces of the perfbench harness: the parsed command line, the
// result every workload returns, and the measurement helpers (clocks, CPU
// time, peak RSS, percentiles, digests, Chrome trace export).
//
// The harness measures hoiho from the outside: it times its own calls into
// each layer's public functions and reads what the program already exports
// (obs::Tracer spans, registry counters, hoihod's STATS2). It adds nothing
// to the library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

namespace obs = hoiho::obs;

// Deliberate faults, set only by the self-test to prove that each
// correctness check counts a failure.
struct Faults {
  bool corrupt_digest = false;  // learn: flip a byte of the reference digest
  bool reject_delta = false;    // relearn: apply one delta on a stale base generation
  bool wrong_answer = false;    // serve: expect a different answer for one request
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out;      // detail JSON path
  std::string workdir;  // scratch files of this run (models, deltas, logs)
  std::string command;  // the exact command line, for provenance
  // Self-test knobs: a much smaller world and injected faults.
  bool tiny = false;
  Faults faults;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::map<std::string, double> metrics;  // by name; units live in main.cc
  std::map<std::string, std::string> detail;  // extra facts for the detail JSON
  std::vector<obs::SpanRecord> spans;          // one traced operation, for export
  std::uint64_t dropped_spans = 0;

  void add(const std::string& name, double value) { metrics[name] = value; }
  void fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

Result run_learn(const Args& args);
Result run_relearn(const Args& args);
Result run_serve(const Args& args);

// --- recorded references ----------------------------------------------------
//
// perfbench/references.txt holds, one per line, "<key> <digest>": the model
// digest of every learn_L pool world, and the model and answer-table
// digests of every serve_mixed pool world, as the code produced them when
// the file was written. The workloads fail a run whose outputs differ.
// perfbench_references regenerates the file (learn_references followed by
// serve_references) when a change means to alter the models.

// The recorded digest for `key`, or nullopt when the file has none.
std::optional<std::string> recorded_reference(const std::string& key);
std::string learn_references(const std::string& workdir);
std::string serve_references(const std::string& workdir);

// --- measurement helpers --------------------------------------------------

std::uint64_t now_ns();
double ms_since(std::uint64_t t0_ns);

// User+system CPU seconds of this process.
double process_cpu_s();
// User+system CPU seconds of another process (from /proc/<pid>/stat).
double child_cpu_s(int pid);
// Steal time of all CPUs, in clock ticks: time the hypervisor ran something
// else while this machine's CPUs had work (/proc/stat); 0 when unknown.
double host_steal_ticks();
// VmHWM of a process in MB (pid 0 = this process).
double peak_rss_mb(int pid = 0);
// Resets this process's VmHWM to its current RSS; false if unsupported.
bool reset_peak_rss();

// Nearest-rank percentile (p in [0,100]) of unsorted values; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

std::uint64_t fnv64(std::string_view bytes);
std::string hex64(std::uint64_t v);
bool read_file(const std::string& path, std::string* out);
bool write_file(const std::string& path, std::string_view bytes);
void make_dirs(const std::string& path);

// `s` as a quoted JSON string (control bytes become spaces).
std::string json_string(std::string_view s);

// Chrome trace-event JSON ("X" complete events, microseconds), viewable
// offline in Perfetto or chrome://tracing.
bool write_chrome_trace(const std::string& path, const std::vector<obs::SpanRecord>& spans);

// Records one benchmark-side span into `tracer` (null = no-op), so the
// harness's own layer calls show up beside the program's spans.
void record_span(obs::Tracer* tracer, std::string_view name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::string_view detail = {}, std::uint64_t work = 0);

std::size_t hardware_threads();

// Host provenance for the detail JSON: nproc, build type, flags, compiler.
std::map<std::string, std::string> provenance();

}  // namespace perfbench
