#include "Bench.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

Tail tailOf(const std::vector<double> &V) {
  for (int Pct : {99, 90, 50})
    if (double(V.size()) * (100 - Pct) / 100.0 >= 10.0)
      return {quantile(V, Pct / 100.0), Pct};
  return {};
}

void RunResult::set(const std::string &Name, double Value,
                    const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Metrics.push_back({Name, Value, Unit});
}

double RunResult::get(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return M.Value;
  return 0;
}

void RunResult::line(const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Report.push_back(Buf);
}

void RunResult::check(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (FailNotes.size() < 8)
    FailNotes.push_back(Why);
}

void RunResult::checkAll(uint64_t Total, uint64_t Bad, const std::string &Why) {
  Attempted += Total;
  Failed += Bad;
  if (Bad > 0 && FailNotes.size() < 8)
    FailNotes.push_back(Why + " (" + std::to_string(Bad) + " of " +
                        std::to_string(Total) + ")");
}

double Tracer::usSinceEpoch(Clock::time_point T) const {
  return std::chrono::duration<double, std::micro>(T - Epoch).count();
}

int Tracer::begin(const std::string &Name, int Parent, uint64_t Job) {
  Spans.push_back({Name, usSinceEpoch(Clock::now()), 0, Parent, Job});
  return int(Spans.size() - 1);
}

void Tracer::end(int Idx) { Spans[Idx].EndUs = usSinceEpoch(Clock::now()); }

int Tracer::add(const std::string &Name, Clock::time_point Start,
                Clock::time_point End, int Parent, uint64_t Job) {
  Spans.push_back(
      {Name, usSinceEpoch(Start), usSinceEpoch(End), Parent, Job});
  return int(Spans.size() - 1);
}

std::vector<double> Tracer::selfTimesUs() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].EndUs - Spans[I].StartUs;
  // Children of one parent never overlap (each is recorded by the
  // thread that owns the parent), so subtracting their durations
  // subtracts exactly the covered part of the parent.
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.EndUs - S.StartUs;
  return Self;
}

bool Tracer::writeChromeTrace(const std::string &Path, size_t MaxSpans) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  size_t N = std::min(Spans.size(), MaxSpans);
  OS << "{\"traceEvents\":[\n";
  for (size_t I = 0; I < N; ++I) {
    const Span &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%llu,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  S.Name.c_str(), S.StartUs, S.EndUs - S.StartUs,
                  (unsigned long long)S.Job, I, S.Parent);
    OS << Buf << (I + 1 < N ? ",\n" : "\n");
  }
  OS << "]}\n";
  return bool(OS);
}

bool restartPeakRss() {
  malloc_trim(0);
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

double peakRssMb() {
  double Kb = 0;
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    while (std::fgets(Line, sizeof(Line), F))
      if (std::strncmp(Line, "VmHWM:", 6) == 0)
        Kb = std::strtod(Line + 6, nullptr);
    std::fclose(F);
  }
  if (Kb <= 0) { // no procfs: the process-lifetime peak
    rusage U;
    getrusage(RUSAGE_SELF, &U);
    Kb = double(U.ru_maxrss);
  }
  return Kb / 1024.0;
}

static std::vector<std::pair<std::string, std::string>> makePerLayer() {
  std::vector<std::pair<std::string, std::string>> M = {
      {"frontend.lex_ms", "ms"},          {"frontend.parse_ms", "ms"},
      {"frontend.type_ms", "ms"},         {"frontend.tokens", "count"},
      {"frontend.syntax_nodes", "count"}, {"frontend.diagnostics", "count"},
  };
  for (const char *G : {"RefChecks", "PatternMatcher", "Erasure", "Mixin",
                        "LambdaLift", "CollectEntryPoints"}) {
    std::string P = std::string("transform.") + G;
    M.push_back({P + ".ms", "ms"});
    M.push_back({P + ".nodes_out", "count"});
    M.push_back({P + ".nodes_rebuilt", "count"});
    if (std::strcmp(G, "Erasure") != 0) { // the one unfused group
      M.push_back({P + ".nodes_visited", "count"});
      M.push_back({P + ".hooks_executed", "count"});
      M.push_back({P + ".subtrees_pruned", "count"});
    }
  }
  std::vector<std::pair<std::string, std::string>> Rest = {
      {"transform.hooks_per_visit", "ratio"},
      {"heap.sim_bytes_allocated", "B"},
      {"heap.real_allocs", "count"},
      {"heap.slab_hits", "count"},
      {"heap.pages_mapped", "count"},
      {"backend.codegen_ms", "ms"},
      {"backend.link_ms", "ms"},
      {"backend.verify_ms", "ms"},
      {"backend.emitted_instrs", "count"},
      {"backend.linked_instrs", "count"},
      {"vm.construct_us", "us"},
      {"vm.run_us", "us"},
      {"vm.dispatches", "count"},
      {"vm.dispatches_per_oracle_instr", "ratio"},
      {"vm.ic_call_hit_ratio", "ratio"},
      {"vm.ic_field_hit_ratio", "ratio"},
      {"vm.frames", "count"},
      {"vm.allocs", "count"},
      {"driver.queue_wait_p50_ms", "ms"},
      {"driver.queue_wait_p99_ms", "ms"},
      {"driver.compile_p50_ms", "ms"},
      {"driver.cache_hit_ratio", "ratio"},
      {"driver.cache_hit_p50_ms", "ms"},
      {"driver.contexts_reused", "count"},
      {"driver.retry_after", "count"},
      {"driver.worker_util", "%"},
      {"net.overhead_p50_ms", "ms"},
      {"net.bytes_per_request", "B"},
      {"net.retries", "count"},
      {"net.reconnects", "count"},
      {"loadgen.late_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.span_coverage_pct", "%"},
  };
  M.insert(M.end(), Rest.begin(), Rest.end());
  return M;
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const auto M = makePerLayer();
  return M;
}

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"op_ms", "ms"},
      {"work_per_s", "1/s"},
  };
  return M;
}

} // namespace perfbench
