// Repository benchmark: command-line entry point.
//
//   perfbench --workload topk_saturated|topk_live|airline_scalein
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
// with --trace-out the traced run's benchmark spans are written there as a
// Chrome trace.
// Exits non-zero when the run failed or its outputs differ from the oracle.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/trace.h"
#include "workloads.h"

namespace {

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload topk_saturated|topk_live|airline_scalein "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* flag = argv[i];
    const char* value = argv[++i];
    long long v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      cfg.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0 && ParseInt(value, 0, (1LL << 62), &v)) {
      cfg.seed = static_cast<uint64_t>(v);
    } else if (std::strcmp(flag, "--seconds") == 0 && ParseInt(value, 1, 60, &v)) {
      cfg.seconds = static_cast<int>(v);
    } else if (std::strcmp(flag, "--trace") == 0 && ParseInt(value, 0, 1, &v)) {
      cfg.trace = v == 1;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }

  perfbench::RunResult r;
  if (cfg.workload == "topk_saturated") {
    r = perfbench::RunTopkSaturated(cfg);
  } else if (cfg.workload == "topk_live") {
    r = perfbench::RunTopkLive(cfg);
  } else if (cfg.workload == "airline_scalein") {
    r = perfbench::RunAirlineScaleIn(cfg);
  } else {
    return Usage(argv[0]);
  }
  if (r.attempted < 1) r.correct = false;
  if (cfg.trace && !trace_out.empty() && !albic::Tracer::Global().WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
  }
  for (const perfbench::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) r.correct = false;
  }

  std::printf("workload %s  seed %llu  seconds %d  trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perfbench::Metric& m : r.report) {
    std::printf("  (%s %.6g %s)\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double error_rate =
      r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 1.0;
  std::printf("  (error_rate %.6g ratio: %lld failed of %lld attempted)\n", error_rate,
              static_cast<long long>(r.failed), static_cast<long long>(r.attempted));

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
