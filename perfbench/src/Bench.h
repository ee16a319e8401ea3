//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery of the perfbench driver: sample summaries, outcome
/// accounting, the in-memory span recorder of traced runs, peak-RSS
/// measurement, and the result record every workload fills in.
///
/// The benchmark drives only the compiler's public entry points; every
/// span is recorded here, around the call into a module, never inside it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Linear-interpolated quantile (\p Q in [0,1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// The highest of p99 / p90 / p50 that has at least ten samples beyond
/// it. \p Pct is 0 when there are too few samples for any of them.
struct Tail {
  double Value = 0;
  int Pct = 0;
};
Tail tailOf(const std::vector<double> &V);

/// What one run of a workload measured and checked.
struct RunResult {
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  /// The metrics of the final JSON line (end-to-end or per-layer).
  std::vector<Metric> Metrics;
  /// Human-readable lines printed before the JSON line: the metrics
  /// under the names the workload's users know them by.
  std::vector<std::string> Report;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// First few failure descriptions (stderr only).
  std::vector<std::string> FailNotes;

  void set(const std::string &Name, double Value, const std::string &Unit);
  double get(const std::string &Name) const;
  void line(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Counts one checked operation; \p Ok false records \p Why.
  void check(bool Ok, const std::string &Why);
  /// Counts \p Total checked operations of which \p Bad failed.
  void checkAll(uint64_t Total, uint64_t Bad, const std::string &Why);
};

/// One traced interval. Parent is an index into the same recorder, or
/// -1 for a root span. Job groups the spans of one compile or request.
struct Span {
  std::string Name;
  double StartUs = 0;
  double EndUs = 0;
  int Parent = -1;
  uint64_t Job = 0;
};

/// In-memory span recorder; written out once, when the run ends.
class Tracer {
public:
  Tracer() : Epoch(Clock::now()) {}

  int begin(const std::string &Name, int Parent, uint64_t Job);
  void end(int Idx);
  /// Records an interval measured elsewhere (client-side request spans
  /// joined with server-reported stage times).
  int add(const std::string &Name, Clock::time_point Start,
          Clock::time_point End, int Parent, uint64_t Job);

  const std::vector<Span> &spans() const { return Spans; }
  double durationUs(int Idx) const {
    return Spans[Idx].EndUs - Spans[Idx].StartUs;
  }
  /// Span duration minus the part of it its direct children cover.
  std::vector<double> selfTimesUs() const;
  /// Writes the first \p MaxSpans spans as Chrome trace-event JSON (opens
  /// in Perfetto / chrome://tracing); a guest run records ~10^6 spans.
  bool writeChromeTrace(const std::string &Path,
                        size_t MaxSpans = 250000) const;

private:
  double usSinceEpoch(Clock::time_point T) const;

  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// Returns freed heap memory to the OS and restarts the kernel's
/// peak-RSS mark at the current RSS, so a later peakRssMb() measures the
/// timed phase, not the set-up. Returns false when the kernel refuses
/// (then peakRssMb() is the process-lifetime peak).
bool restartPeakRss();
/// Peak resident set of this process, in MB (VmHWM, or getrusage's
/// lifetime peak where procfs is unavailable).
double peakRssMb();

/// Times \p Body \p Reps times and returns the median, in seconds.
template <typename F> double medianSeconds(unsigned Reps, F &&Body) {
  std::vector<double> S;
  for (unsigned I = 0; I < Reps; ++I) {
    auto T0 = Clock::now();
    Body();
    S.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }
  return median(S);
}

/// Arguments of one benchmark run.
struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for the trace file of a traced run.
  std::string OutDir = ".";
};

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned SetupReps = 5;

void runCodebase(const RunArgs &A, RunResult &R);
void runService(const RunArgs &A, RunResult &R);
void runGuest(const RunArgs &A, RunResult &R);

/// Hex fingerprint of every input the workload generates from the
/// run's seed (and, for `service`, its length): the determinism tests
/// compare two of them.
std::string codebaseInputs(const RunArgs &A);
std::string serviceInputs(const RunArgs &A);
std::string guestInputs(const RunArgs &A);

/// Per-layer metric names, in BENCHMARK.json order. A traced run
/// reports every one of them; a layer the workload does not exercise
/// reads 0.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();
/// End-to-end metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
