// perfbench: the repository benchmark.
//
//   perfbench --workload {learn_L|relearn_delta|serve_mixed} --seed N
//             --seconds S --trace {0|1} [--out FILE]
//
// Runs one workload generated from the seed, checks every output, and
// prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced run of the same seed. A detail JSON (host
// provenance, the exact command line, errors, and the metrics with units)
// goes to --out, by default .bench_out/<workload>-<seed>-trace<T>.json; a
// traced run also writes the spans as Chrome trace-event JSON next to it.
//
// Every per-layer metric is reported on every workload; a layer that the
// workload does not exercise reads 0.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},
    {"op_cpu_ms", "ms"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"io.next_batch_ms", "ms"},
    {"core.suffix_busy_ms", "ms"},
    {"core.suffix_p99_ms", "ms"},
    {"core.suffix_count", "count"},
    {"util.pool.busy_frac", "ratio"},
    {"util.pool.tail_idle_ms", "ms"},
    {"core.between_batches_ms", "ms"},
    {"util.pool.tasks_stolen", "count"},
    {"util.pool.steal_failures", "count"},
    {"core.tag_ms", "ms"},
    {"core.regex_gen_ms", "ms"},
    {"core.eval_ms", "ms"},
    {"core.learn_ms", "ms"},
    {"core.unstaged_ms", "ms"},
    {"regex.programs_run", "count"},
    {"regex.hit_ratio", "ratio"},
    {"measure.cache_hit_ratio", "ratio"},
    {"measure.cache_misses", "count"},
    {"core.model_save_ms", "ms"},
    {"core.fingerprint_ms", "ms"},
    {"learn.hostnames_per_s", "1/s"},
    {"core.run_delta_ms", "ms"},
    {"core.delta_relearn_ms", "ms"},
    {"core.delta_diff_ms", "ms"},
    {"core.delta_dirty_ratio", "ratio"},
    {"core.delta_serialize_ms", "ms"},
    {"serve.store_apply_ms", "ms"},
    {"serve.delta_apply_us_p50", "us"},
    {"core.locate_us_p50", "us"},
    {"core.locate_us_p99", "us"},
    {"fuse.fuse_us_p50", "us"},
    {"fuse.fuse_us_p99", "us"},
    {"fuse.candidates_per_geo", "count"},
    {"fuse.rtt_infeasible_frac", "ratio"},
    {"serve.batch_us_p50", "us"},
    {"serve.batch_us_p99", "us"},
    {"serve.avg_batch_lines", "count"},
    {"serve.parse_ns_per_req", "ns"},
    {"serve.lookup_ns_per_req", "ns"},
    {"serve.write_ns_per_req", "ns"},
    {"serve.overhead_us_p50", "us"},
    {"serve.shed_busy", "count"},
    {"serve.deadline_expired", "count"},
    {"serve.lookup_p99_ms", "ms"},
    {"serve.geo_p99_ms", "ms"},
    {"serve.geob_p99_ms", "ms"},
    {"serve.p99_ms_lo", "ms"},
    {"serve.max_rps", "1/s"},
    {"serve.delta_ms_p50", "ms"},
    {"loadgen.late_us_p99_lo", "us"},
    {"loadgen.late_us_p99_hi", "us"},
    {"loadgen.backlog_end_lo", "count"},
    {"loadgen.backlog_end_hi", "count"},
    {"mem.peak_rss_mb", "MB"},
    {"obs.trace_overhead_frac", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload {learn_L|relearn_delta|serve_mixed} --seed N\n"
               "                 --seconds S --trace {0|1} [--out FILE]\n",
               why);
  return 2;
}

// Whole decimal number in [lo, hi]; no sign, no trailing garbage.
bool parse_uint(const char* s, unsigned long long lo, unsigned long long hi,
                unsigned long long* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) args.command += ' ';
    args.command += argv[i];
  }
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage(("missing value for " + flag).c_str());
    ++i;
    unsigned long long v = 0;
    if (flag == "--workload") {
      args.workload = value;
      if (args.workload != "learn_L" && args.workload != "relearn_delta" &&
          args.workload != "serve_mixed")
        return usage(("unknown workload '" + args.workload + "'").c_str());
    } else if (flag == "--seed") {
      if (!parse_uint(value, 0, (1ULL << 62), &v)) return usage("--seed takes a whole number");
      args.seed = v;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, 1, 600, &v)) return usage("--seconds takes 1..600");
      args.seconds = static_cast<int>(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_uint(value, 0, 1, &v)) return usage("--trace takes 0 or 1");
      args.trace = v == 1;
      have_trace = true;
    } else if (flag == "--out") {
      if (*value == '\0') return usage("--out takes a path");
      args.out = value;
    } else {
      return usage(("unknown flag '" + flag + "'").c_str());
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  const std::string stem = args.workload + "-" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  args.workdir = ".bench_out/" + stem;
  make_dirs(args.workdir);
  if (args.out.empty()) args.out = ".bench_out/" + stem + ".json";

  Result res = args.workload == "learn_L"         ? run_learn(args)
               : args.workload == "relearn_delta" ? run_relearn(args)
                                                  : run_serve(args);

  const std::vector<MetricSpec>& specs = args.trace ? kPerLayer : kEndToEnd;
  std::string metrics_json = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = res.metrics.find(specs[i].name);
    if (it == res.metrics.end() && !args.trace) res.fail(std::string("missing metric ") + specs[i].name);
    const double value = it == res.metrics.end() ? 0.0 : it->second;
    metrics_json += (i ? ", " : "") + json_string(specs[i].name) + ": {\"value\": " +
                    json_number(value) + ", \"unit\": " + json_string(specs[i].unit) + "}";
  }
  metrics_json += "}";
  if (res.attempted == 0) res.fail("no operation attempted");
  const bool correct = res.failed == 0;

  std::string trace_path;
  if (args.trace && !res.spans.empty()) {
    trace_path = ".bench_out/" + stem + ".trace.json";
    if (!write_chrome_trace(trace_path, res.spans)) trace_path = "(write failed)";
  }

  std::string detail = "{\n  \"workload\": " + json_string(args.workload) +
                       ",\n  \"seed\": " + std::to_string(args.seed) +
                       ",\n  \"seconds\": " + std::to_string(args.seconds) +
                       ",\n  \"trace\": " + (args.trace ? "1" : "0") +
                       ",\n  \"command\": " + json_string(args.command) + ",\n  \"host\": {";
  bool first = true;
  for (const auto& [k, v] : provenance()) {
    detail += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  detail += "},\n  \"detail\": {";
  first = true;
  for (const auto& [k, v] : res.detail) {
    detail += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  detail += "},\n  \"errors\": [";
  for (std::size_t i = 0; i < res.errors.size(); ++i)
    detail += (i ? ", " : "") + json_string(res.errors[i]);
  detail += "],\n  \"dropped_spans\": " + std::to_string(res.dropped_spans) +
            ",\n  \"chrome_trace\": " + json_string(trace_path) +
            ",\n  \"correct\": " + (correct ? "true" : "false") +
            ",\n  \"attempted\": " + std::to_string(res.attempted) +
            ",\n  \"failed\": " + std::to_string(res.failed) +
            ",\n  \"metrics\": " + metrics_json + "\n}\n";
  if (!write_file(args.out, detail)) std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());

  for (const std::string& e : res.errors) std::fprintf(stderr, "perfbench: failure: %s\n", e.c_str());
  std::printf("perfbench: %s seed %llu trace %d -> %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, args.out.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics_json.c_str());
  return 0;
}
