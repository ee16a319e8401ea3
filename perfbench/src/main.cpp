//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench: one benchmark for the whole compiler.
///
///   perfbench --workload codebase|service|guest --seed N --seconds S
///             --trace 0|1 [--out-dir DIR]
///   perfbench --inputs --workload W --seed N [--seconds S]
///
/// A run prints human-readable lines, then one JSON line describing the
/// machine and the workload, then, last, the result object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
/// separate traced run reports the per-layer ones (and writes the spans
/// as a Chrome trace into --out-dir). --inputs prints a fingerprint of
/// the generated inputs instead of running.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "codebase|service|guest --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--inputs]\n",
               Msg);
  return 2;
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    O += C;
  }
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  bool Inputs = false;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--inputs") {
      Inputs = true;
    } else if (Arg == "--workload" && (V = value())) {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Arg == "--seed" && (V = value())) {
      A.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--seconds" && (V = value())) {
      A.Seconds = std::strtod(V, nullptr);
    } else if (Arg == "--trace" && (V = value())) {
      A.Trace = std::strcmp(V, "0") != 0;
    } else if (Arg == "--out-dir" && (V = value())) {
      A.OutDir = V;
    } else {
      return usage(("bad argument: " + Arg).c_str());
    }
  }
  if (!HaveWorkload)
    return usage("--workload is required");
  if (!(A.Seconds > 0 && A.Seconds <= 600))
    return usage("--seconds must be in (0, 600]");

  void (*Run)(const RunArgs &, RunResult &) = nullptr;
  std::string (*InputsOf)(const RunArgs &) = nullptr;
  if (A.Workload == "codebase") {
    Run = runCodebase;
    InputsOf = codebaseInputs;
  } else if (A.Workload == "service") {
    Run = runService;
    InputsOf = serviceInputs;
  } else if (A.Workload == "guest") {
    Run = runGuest;
    InputsOf = guestInputs;
  } else {
    return usage(("unknown workload: " + A.Workload).c_str());
  }

  RunResult R;
  try {
    if (Inputs) {
      std::printf("%s\n", InputsOf(A).c_str());
      return 0;
    }
    Run(A, R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s: %s\n", A.Workload.c_str(), E.what());
    return 1;
  }

  // Exactly the metrics BENCHMARK.json names for this mode, in its order;
  // a layer the workload does not exercise reads 0.
  const auto &Names = A.Trace ? perLayerMetrics() : endToEndMetrics();
  std::string Metrics;
  for (const auto &[Name, Unit] : Names) {
    double V = R.get(Name);
    if (!std::isfinite(V)) {
      R.check(false, "metric " + Name + " is not finite");
      V = 0;
    }
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Metrics.empty() ? "" : ", ", Name.c_str(), V, Unit.c_str());
    Metrics += Buf;
  }

  for (const std::string &L : R.Report)
    std::printf("%s\n", L.c_str());
  double FailPct =
      R.Attempted ? 100.0 * double(R.Failed) / double(R.Attempted) : 100.0;
  std::printf("fail_pct            %.4f %%  (%llu of %llu checked operations)\n",
              FailPct, (unsigned long long)R.Failed,
              (unsigned long long)R.Attempted);
  for (const std::string &N : R.FailNotes)
    std::fprintf(stderr, "perfbench: check failed: %s\n", N.c_str());
  std::printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\"}}\n",
              jsonEscape(A.Workload).c_str(), (unsigned long long)A.Seed,
              A.Seconds, A.Trace ? 1 : 0, std::thread::hardware_concurrency(),
              jsonEscape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE);
  bool Correct = R.Attempted > 0 && R.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false", (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed, Metrics.c_str());
  return 0;
}
