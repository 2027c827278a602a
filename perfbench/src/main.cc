// odyssey_perfbench: runs one benchmark workload against the library's
// public API and prints its metrics, ending with one JSON result line.
//
//   odyssey_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--out-dir <dir>]
//
// perfbench/run.py builds this binary and is the benchmark's entry point.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/common/numa.h"
#include "src/distance/simd.h"

extern char** environ;

namespace {

// Environment variables that change a library default. A run with any of
// them set would measure a configuration other than the default one, so it
// reports nothing.
const char* const kDefaultChangingKnobs[] = {
    "ODYSSEY_BATCHED_SCORING", "ODYSSEY_STEAL_DONATION",
    "ODYSSEY_BATCH_INFLIGHT",  "ODYSSEY_SIMD",
    "ODYSSEY_NUMA",            "ODYSSEY_NO_MMAP",
};

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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

std::vector<std::string> OdysseyEnvironment() {
  std::vector<std::string> vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ODYSSEY_", 8) == 0) vars.push_back(*e);
  }
  return vars;
}

/// The host fingerprint printed with every run: what the numbers depend on
/// besides the code.
std::string Fingerprint() {
  std::string env = "[";
  for (const std::string& var : OdysseyEnvironment()) {
    if (env.size() > 1) env += ',';
    env += JsonString(var);
  }
  env += "]";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\":%ld,\"isa\":%s,\"compiler\":%s,\"build_type\":%s,"
      "\"numa_enabled\":%s,\"numa_nodes\":%d,\"odyssey_env\":",
      sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(odyssey::simd::IsaName(odyssey::simd::ActiveIsa())).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      odyssey::numa::Enabled() ? "true" : "false", odyssey::numa::NodeCount());
  return std::string(buf) + env + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "odyssey_perfbench: %s\nusage: odyssey_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0 || workload.empty() || seed < 0 || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return Usage("missing or invalid arguments");
  }

  // Configuration guard: numbers from an unoptimized build or a
  // non-default configuration are refused, not reported.
  if (!kOptimizedBuild) {
    std::fprintf(stderr, "refusing to measure an unoptimized build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  for (const char* knob : kDefaultChangingKnobs) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr,
                   "refusing to measure with %s set: it changes a library "
                   "default\n",
                   knob);
      return 3;
    }
  }
  std::printf("fingerprint %s\n", Fingerprint().c_str());

  perfbench::RunResult result;
  std::string error;
  if (!perfbench::RunWorkload(workload, static_cast<uint64_t>(seed), seconds,
                              trace == 1, out_dir, &result, &error)) {
    std::fprintf(stderr, "odyssey_perfbench: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  if (trace == 1) {
    const std::string path = out_dir + "/trace-" + workload + "-seed" +
                             std::to_string(seed) + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    const bool written = f != nullptr &&
                         std::fputs(result.trace_json.c_str(), f) >= 0;
    if (f != nullptr && std::fclose(f) == 0 && written) {
      std::printf("trace written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "odyssey_perfbench: cannot write %s\n",
                   path.c_str());
    }
  }

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string metrics;
  for (const auto& [name, m] : result.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s%s: {\"value\": %.17g, \"unit\": %s}",
                  metrics.empty() ? "" : ", ", JsonString(name).c_str(),
                  m.value, JsonString(m.unit).c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", result.attempted, result.failed,
      metrics.c_str());
  return correct ? 0 : 1;
}
