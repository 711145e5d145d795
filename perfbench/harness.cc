#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/simd.h"

#ifndef QCAP_PERFBENCH_BUILD_TYPE
#define QCAP_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef QCAP_PERFBENCH_COMPILER
#define QCAP_PERFBENCH_COMPILER "unknown"
#endif

namespace qcap::perfbench {
namespace {

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

double ProcessCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }
double ThreadCpuSeconds() { return CpuSeconds(RUSAGE_THREAD); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double TailQuantile(size_t n, double wanted, size_t min_beyond) {
  if (n < 2 * min_beyond + 1) return -1.0;
  // Nearest rank of q is ceil(q * n); the samples beyond it number
  // n - ceil(q * n), so q may be at most (n - min_beyond) / n.
  const double limit =
      static_cast<double>(n - min_beyond) / static_cast<double>(n);
  return std::min(wanted, limit);
}

double WindowedTail(std::vector<std::vector<double>> windows, double q,
                    size_t min_beyond) {
  std::vector<double> tails;
  for (std::vector<double>& w : windows) {
    const double wq = TailQuantile(w.size(), q, min_beyond);
    if (wq < 0) continue;
    std::sort(w.begin(), w.end());
    tails.push_back(Percentile(w, wq));
  }
  return Median(std::move(tails));
}

Capacity CapacityFromLadder(const std::vector<LadderStep>& steps,
                            double p99_limit_seconds) {
  Capacity out;
  const auto passes = [&](const LadderStep& s) {
    return s.p99_seconds <= p99_limit_seconds && !s.backlog_grew;
  };
  size_t valid = 0;
  while (valid < steps.size() && steps[valid].valid) ++valid;
  // The highest passing step among the valid prefix.
  size_t top = valid;
  for (size_t i = 0; i < valid; ++i) {
    if (passes(steps[i])) top = i;
  }
  if (top == valid) return out;  // nothing passed
  out.qps = steps[top].offered_qps;
  if (top + 1 < valid) {
    const LadderStep& pass = steps[top];
    const LadderStep& fail = steps[top + 1];
    const double l0 = pass.p99_seconds;
    const double l1 = std::max(fail.p99_seconds, p99_limit_seconds);
    const double share = l1 > l0 ? (p99_limit_seconds - l0) / (l1 - l0) : 1.0;
    out.qps += (fail.offered_qps - pass.offered_qps) * share;
    out.bracketed = true;
  }
  return out;
}

double TransportMicros(double serve_cpu_us, double route_us, double frame_us) {
  return std::max(0.0, serve_cpu_us - route_us - frame_us);
}

HostTicks ReadHostTicks() {
  HostTicks out;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    uint64_t ticks = 0;
    if (!(in >> ticks)) break;
    out.total += ticks;
    if (field == 7) out.steal = ticks;
  }
  return out;
}

std::string HostFingerprintJson() {
  std::string out = "{\"host\": {\"cpu_model\": " + JsonString(CpuModel());
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": " + JsonString(QCAP_PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + JsonString(QCAP_PERFBENCH_COMPILER);
  out += ", \"simd\": ";
  out += simd::Enabled() ? "true" : "false";
  return out + "}}";
}

std::string ResultJson(const RunResult& result, bool trace) {
  const std::vector<Metric>& metrics =
      trace ? result.per_layer : result.end_to_end;
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over the combined words.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace qcap::perfbench
