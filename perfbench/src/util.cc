#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_REFERENCES
#define PERFBENCH_REFERENCES "perfbench/references.txt"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::uint64_t now_ns() { return hoiho::obs::Tracer::now_ns(); }

double ms_since(std::uint64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) / 1e6; }

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0;
  in >> cpu;
  for (int i = 1; i <= 8 && in >> field; ++i)
    if (i == 8) return field;
  return 0;
}

double child_cpu_s(int pid) {
  std::string stat;
  if (!read_file("/proc/" + std::to_string(pid) + "/stat", &stat)) return 0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long hz = ::sysconf(_SC_CLK_TCK);
  return static_cast<double>(utime + stime) / static_cast<double>(hz > 0 ? hz : 100);
}

double peak_rss_mb(int pid) {
  std::string status;
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  if (!read_file(path, &status)) return 0;
  const std::size_t pos = status.find("VmHWM:");
  if (pos == std::string::npos) return 0;
  return static_cast<double>(std::strtoull(status.c_str() + pos + 6, nullptr, 10)) / 1024.0;
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5\n";
  f.flush();
  return static_cast<bool>(f);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t fnv64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return static_cast<bool>(out);
}

void make_dirs(const std::string& path) {
  for (std::size_t pos = path.find('/', 1); ; pos = path.find('/', pos + 1)) {
    ::mkdir(path.substr(0, pos).c_str(), 0755);
    if (pos == std::string::npos) break;
  }
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::optional<std::string> recorded_reference(const std::string& key) {
  static const std::map<std::string, std::string> table = [] {
    std::map<std::string, std::string> t;
    std::ifstream in(PERFBENCH_REFERENCES);
    for (std::string line; std::getline(in, line);) {
      const std::size_t sp = line.rfind(' ');
      if (line.empty() || line[0] == '#' || sp == std::string::npos) continue;
      t[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return t;
  }();
  const auto it = table.find(key);
  if (it == table.end()) return std::nullopt;
  return it->second;
}

bool write_chrome_trace(const std::string& path, const std::vector<obs::SpanRecord>& spans) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": " + json_string(s.name);
    out += ", \"cat\": \"hoiho\", \"ph\": \"X\"";
    std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
                  static_cast<double>(s.start_ns) / 1e3, static_cast<double>(s.dur_ns) / 1e3,
                  s.thread);
    out += buf;
    out += ", \"args\": {\"detail\": " + json_string(s.detail);
    out += ", \"work\": " + std::to_string(s.work) + ", \"depth\": " + std::to_string(s.depth) +
           "}}";
  }
  out += "\n]}\n";
  return write_file(path, out);
}

void record_span(obs::Tracer* tracer, std::string_view name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::string_view detail, std::uint64_t work) {
  if (tracer == nullptr) return;
  obs::SpanRecord rec;
  rec.name = name;
  rec.detail = detail;
  rec.start_ns = start_ns - tracer->epoch_ns();
  rec.dur_ns = end_ns - start_ns;
  rec.work = work;
  rec.thread = hoiho::obs::thread_ordinal();
  tracer->record(std::move(rec));
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::map<std::string, std::string> provenance() {
  std::map<std::string, std::string> p;
  p["nproc"] = std::to_string(hardware_threads());
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  p["compiler"] = PERFBENCH_COMPILER;
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) == 0) p["hostname"] = host;
  std::string cpuinfo;
  if (read_file("/proc/cpuinfo", &cpuinfo)) {
    const std::size_t pos = cpuinfo.find("model name");
    if (pos != std::string::npos) {
      const std::size_t colon = cpuinfo.find(':', pos);
      const std::size_t eol = cpuinfo.find('\n', pos);
      if (colon != std::string::npos && eol != std::string::npos && colon < eol)
        p["cpu"] = cpuinfo.substr(colon + 2, eol - colon - 2);
    }
  }
  return p;
}

}  // namespace perfbench
