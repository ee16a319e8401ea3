//===----------------------------------------------------------------------===//
///
/// \file
/// The `service` workload: an in-process CompileServer on loopback, fed
/// by this process over the wire protocol. Here the per-request path
/// does most of the work — framing, the admission queue, artifact-cache
/// lookup and insert, context acquisition and per-job set-up — and that
/// path does nothing in `codebase`.
///
/// The run is cut into Slices equal slices, each two phases on one
/// server:
///   1. Open loop at a fixed offered rate. Arrival i of the slice is due
///      at T0 + i / RateRps whatever the server does; a free connection
///      takes the next due arrival, so a stall delays later requests and
///      their latency, timed from the due time, shows it.
///   2. Closed loop: every connection sends its next request when the
///      previous reply arrives. Completed requests per second is the
///      service's capacity on this mix.
/// Both phases thus sample the whole run: other tenants' load on a
/// shared machine comes and goes over seconds, and a single closed-loop
/// phase would report whatever load its seconds had as the capacity.
///
/// Traffic mix: small programs of the five valid generator families
/// (ValidPool fresh seeds, reused as variants); RepeatPct of the
/// arrivals are exact repeats of a
/// recent one (artifact-cache reads, all others are inserts), and
/// AdversarialPct are invalid-family programs that take the diagnostics
/// path. The repeat share stays far from 50% so p50 does not flip between
/// the hit and miss populations. The closed loop has the same repeat
/// share but no adversarial programs: it runs for a time, not a count,
/// and each adversarial arrival needs its own fresh program (a trailing
/// line can change an invalid program's diagnostics).
///
/// Reference: every reply carries the job's lowered-tree dump, checked
/// against the StandardUnfused pipeline's dump computed in-process during
/// set-up; diagnostics (adversarial jobs) against the same reference
/// compile's rendered diagnostics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Compile.h"

#include "driver/Driver.h"
#include "net/Client.h"
#include "net/Server.h"
#include "support/Rng.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

using namespace mpc;
using namespace mpc::net;

namespace perfbench {
namespace {

/// Fixed parameters of the workload.
constexpr unsigned Workers = 2;
constexpr unsigned Connections = 4;
constexpr double RateRps = 300;
constexpr double OpenLoopShare = 0.7; // of a slice; the rest is closed loop
/// Slices of the run; each is an open-loop phase, then a closed-loop one.
constexpr unsigned Slices = 10;
constexpr double RequestScale = 0.25;
constexpr unsigned RepeatPct = 20;
constexpr unsigned AdversarialPct = 5;
/// Distinct valid programs generated per run. Valid arrivals walk
/// through them again and again, each time as a fresh variant (the
/// program plus a trailing comment line: a distinct job and a cache
/// insert, with the same reference dump), so set-up does not grow with
/// the run's length.
constexpr size_t ValidPool = 400;
/// Closed-loop rate the arrival list is sized for; a faster loop starts
/// the list over with fresh variant numbers.
constexpr double ClosedListRps = 5000;
/// A repeat copies an arrival between these many arrivals back: far
/// enough that the original has been answered and cached, near enough
/// that the LRU cache still holds it.
constexpr unsigned RepeatMinBack = 30;
constexpr unsigned RepeatMaxBack = 200;

const Family ValidFamilies[] = {Family::Mixed, Family::DeepInheritance,
                                Family::ClosureHeavy, Family::MegaMethods,
                                Family::ManyTinyUnits};
const Family AdversarialFamilies[] = {Family::Truncated, Family::TokenMutation,
                                      Family::UnbalancedDelims,
                                      Family::TypeErrorSeeded};

/// A distinct program and its reference answer.
struct ReqProgram {
  std::vector<SourceInput> Sources;
  bool Adversarial = false;
  bool HadErrors = false;
  std::string Diag;
  std::string Dump; // fresh names normalized
};

/// One arrival: which program, and whether it repeats an earlier one.
struct Arrival {
  size_t Prog = 0;
  /// Variant number; 0 = the program as generated.
  uint64_t Variant = 0;
  bool Repeat = false;
  /// For a repeat: the arrival it copies.
  size_t Original = 0;
};

struct Inputs {
  /// The valid pool first, then one adversarial program per such arrival.
  std::vector<ReqProgram> Programs;
  std::vector<Arrival> OpenLoop;
  /// Closed-loop arrivals, cycled; index c sends Closed[c % size].
  std::vector<Arrival> Closed;
  uint64_t VariantsPerRound = 1;
};

ReqProgram reference(std::vector<SourceInput> Sources, bool Adversarial) {
  ReqProgram P;
  P.Sources = Sources;
  P.Adversarial = Adversarial;
  CompilerContext Comp;
  CompileOutput Out =
      compileProgram(Comp, std::move(Sources), PipelineKind::StandardUnfused);
  P.HadErrors = Comp.diags().hasErrors();
  P.Diag = renderDiagnostics(Comp);
  // A job with errors stops after the frontend; its reply still carries
  // the dump of the frontend's trees.
  P.Dump = normalizeFreshNames(dumpUnits(Out.Units));
  return P;
}

/// Picks an arrival to repeat among the last [MinBack, MaxBack] fresh
/// valid arrivals of \p List, or returns false.
bool pickRepeat(const std::vector<Arrival> &List,
                const std::vector<ReqProgram> &Progs, Rng &R, Arrival &A) {
  size_t I = List.size();
  if (I < RepeatMaxBack)
    return false;
  size_t J = I - size_t(R.range(RepeatMinBack, RepeatMaxBack));
  while (J > 0 && (List[J].Repeat || Progs[List[J].Prog].Adversarial))
    --J;
  if (List[J].Repeat || Progs[List[J].Prog].Adversarial)
    return false;
  A = List[J];
  A.Repeat = true;
  A.Original = J;
  return true;
}

Inputs makeInputs(uint64_t Seed, double Seconds) {
  Inputs In;
  Rng R(deriveSeed(Seed, 200));
  for (size_t I = 0; I < ValidPool; ++I) {
    Family F = ValidFamilies[R.below(std::size(ValidFamilies))];
    In.Programs.push_back(
        reference(generateFamily(F, R.next(), RequestScale), false));
  }
  uint64_t Cursor = 0; // fresh valid jobs handed out so far
  auto fresh = [&] {
    Arrival A;
    A.Prog = Cursor % ValidPool;
    A.Variant = Cursor / ValidPool;
    ++Cursor;
    return A;
  };
  size_t N = size_t(RateRps * Seconds * OpenLoopShare);
  for (size_t I = 0; I < N; ++I) {
    unsigned Roll = unsigned(R.below(100));
    Arrival A;
    if (Roll < RepeatPct && pickRepeat(In.OpenLoop, In.Programs, R, A)) {
      In.OpenLoop.push_back(A);
    } else if (Roll >= 100 - AdversarialPct) {
      Family F = AdversarialFamilies[R.below(std::size(AdversarialFamilies))];
      In.Programs.push_back(
          reference(generateFamily(F, R.next(), RequestScale), true));
      A.Prog = In.Programs.size() - 1;
      In.OpenLoop.push_back(A);
    } else {
      In.OpenLoop.push_back(fresh());
    }
  }
  size_t M = size_t(ClosedListRps * Seconds * (1.0 - OpenLoopShare));
  for (size_t I = 0; I < M; ++I) {
    Arrival A;
    if (R.below(100) < RepeatPct && pickRepeat(In.Closed, In.Programs, R, A))
      In.Closed.push_back(A);
    else
      In.Closed.push_back(fresh());
  }
  In.VariantsPerRound = Cursor / ValidPool + 1;
  return In;
}

/// The wire request of \p A. A closed loop that outruns its arrival list
/// starts it over (\p Round) with variant numbers no earlier round used.
WireRequest toWire(const Inputs &In, const Arrival &A, uint64_t Round,
                   uint64_t ReqId) {
  WireRequest Req;
  Req.ReqId = ReqId;
  Req.WantDump = true;
  Req.Sources = In.Programs[A.Prog].Sources;
  uint64_t Variant = A.Variant + Round * In.VariantsPerRound;
  if (Variant != 0)
    Req.Sources.back().Text += "\n// variant " + std::to_string(Variant) + "\n";
  return Req;
}

/// What one request saw. The reply's texts are checked on arrival and
/// dropped, so the benchmark's own memory stays out of peak_rss_mb.
struct Record {
  Clock::time_point Due, Sent, Done;
  WireResponse Reply;
  std::string Mismatch; // empty when the reply equals the reference
};

/// Why reply \p W differs from program \p P's reference, or "" if not.
std::string mismatch(const ReqProgram &P, const WireResponse &W) {
  if (W.Status != WireStatus::Ok)
    return "job status " + std::to_string(int(W.Status));
  if (W.HadErrors != P.HadErrors)
    return W.HadErrors ? "unexpected errors" : "missing errors";
  if (W.DiagText != P.Diag)
    return "diagnostics differ: got [" + W.DiagText.substr(0, 200) +
           "] want [" + P.Diag.substr(0, 200) + "]";
  if (normalizeFreshNames(W.DumpText) != P.Dump)
    return "lowered-tree dump differs";
  return {};
}

class Service {
public:
  Service() {
    ServerConfig Cfg;
    Cfg.Service.Threads = Workers;
    Server = std::make_unique<CompileServer>(Cfg);
    std::string Err;
    if (!Server->start(Err))
      throw std::runtime_error("server start failed: " + Err);
    for (unsigned C = 0; C < Connections; ++C) {
      ClientConfig CC;
      CC.Port = Server->port();
      CC.JitterSeed = C + 1;
      Clients.push_back(std::make_unique<CompileClient>(CC));
      if (!Clients.back()->connect(Err))
        throw std::runtime_error("client connect failed: " + Err);
    }
  }
  ~Service() { shutdown(); }
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Closes the clients and drains the server; its stats are final after.
  void shutdown() {
    if (!Server)
      return;
    for (auto &C : Clients)
      C->close();
    Server->requestDrain();
    Server->waitDrained();
    Server->service().drain(); // merges the worker stats
    Final = Server->snapshot();
    FinalStats = Server->service().stats();
    Server.reset();
  }

  /// Open loop: runs arrivals [\p Begin, \p End), arrival I due at
  /// T0 + (I - Begin) / RateRps.
  void openLoop(const Inputs &In, std::vector<Record> &Recs, size_t Begin,
                size_t End) {
    std::atomic<size_t> Next{Begin};
    auto T0 = Clock::now() + std::chrono::milliseconds(20);
    auto Period = std::chrono::duration<double>(1.0 / RateRps);
    runClients([&](CompileClient &C) {
      for (size_t I; (I = Next.fetch_add(1)) < End;) {
        Record &Rec = Recs[I];
        Rec.Due = T0 + std::chrono::duration_cast<Clock::duration>(
                           Period * double(I - Begin));
        std::this_thread::sleep_until(Rec.Due);
        WireRequest Req = toWire(In, In.OpenLoop[I], 0, I + 1);
        Rec.Sent = Clock::now();
        std::string Err;
        bool Answered = C.compile(Req, Rec.Reply, Err);
        Rec.Done = Clock::now();
        Rec.Mismatch = Answered
                           ? mismatch(In.Programs[In.OpenLoop[I].Prog], Rec.Reply)
                           : "no reply: " + Err;
        Rec.Reply.DumpText = std::string();
        Rec.Reply.DiagText = std::string();
      }
    });
  }

  /// Closed loop for \p Seconds, continuing the closed-loop arrival list
  /// where the last one stopped; returns completed requests per second.
  double closedLoop(const Inputs &In, double Seconds, RunResult &R) {
    uint64_t First = ClosedNext.load();
    std::atomic<uint64_t> Bad{0};
    std::atomic<uint64_t> &Next = ClosedNext;
    auto Start = Clock::now();
    auto Deadline = Start + std::chrono::duration<double>(Seconds);
    uint64_t Base = uint64_t(1) << 32; // ReqIds apart from the open loop
    runClients([&](CompileClient &C) {
      while (Clock::now() < Deadline) {
        uint64_t I = Next.fetch_add(1);
        const Arrival &A = In.Closed[I % In.Closed.size()];
        WireRequest Req = toWire(In, A, I / In.Closed.size(), Base + I);
        WireResponse Reply;
        std::string Err;
        bool Ok = C.compile(Req, Reply, Err) &&
                  mismatch(In.Programs[A.Prog], Reply).empty();
        if (!Ok)
          Bad.fetch_add(1);
      }
    });
    double Elapsed = msBetween(Start, Clock::now()) / 1000.0;
    // Every connection's last request may finish after the deadline.
    uint64_t Sent = Next.load() - First;
    R.checkAll(Sent, Bad.load(), "closed-loop reply differs or is missing");
    return double(Sent) / Elapsed;
  }

  std::vector<std::unique_ptr<CompileClient>> Clients;
  /// Closed-loop arrivals handed out so far, over all slices.
  std::atomic<uint64_t> ClosedNext{0};
  ServerStats Final;
  StatsRegistry FinalStats;

private:
  template <typename F> void runClients(F &&Body) {
    std::vector<std::thread> Threads;
    for (auto &C : Clients)
      Threads.emplace_back([&Body, &C] { Body(*C); });
    for (std::thread &T : Threads)
      T.join();
  }

  std::unique_ptr<CompileServer> Server;
};

} // namespace

void runService(const RunArgs &A, RunResult &R) {
  Inputs In;
  std::unique_ptr<Service> Svc;
  double SetupS = medianSeconds(SetupReps, [&] {
    Svc.reset();
    In = makeInputs(A.Seed, A.Seconds);
    Svc = std::make_unique<Service>();
  });
  size_t Adversarial = 0, Repeats = 0;
  for (const Arrival &Ar : In.OpenLoop) {
    Adversarial += In.Programs[Ar.Prog].Adversarial && !Ar.Repeat;
    Repeats += Ar.Repeat;
  }
  R.line("service: %u workers, %u connections, %.0f req/s offered for "
         "%zu arrivals, alternating with closed loop in %u slices; scale "
         "%.2f, seed %llu",
         Workers, Connections, RateRps, In.OpenLoop.size(), Slices,
         RequestScale,
         (unsigned long long)A.Seed);

  bool RssFromTimedPhase = restartPeakRss();
  std::vector<Record> Recs(In.OpenLoop.size());
  std::vector<double> SliceCapacity;
  for (unsigned K = 0; K < Slices; ++K) {
    Svc->openLoop(In, Recs, Recs.size() * K / Slices,
                  Recs.size() * (K + 1) / Slices);
    SliceCapacity.push_back(Svc->closedLoop(
        In, A.Seconds * (1.0 - OpenLoopShare) / Slices, R));
  }
  for (size_t I = 0; I < Recs.size(); ++I)
    R.check(Recs[I].Mismatch.empty(),
            "open-loop request " + std::to_string(I) + ": " + Recs[I].Mismatch);
  double Capacity = median(SliceCapacity);
  uint64_t Retries = 0, Reconnects = 0;
  for (auto &C : Svc->Clients) {
    Retries += C->stats().BackoffSleeps;
    Reconnects += C->stats().Reconnects;
  }
  Svc->shutdown();
  double PeakMb = peakRssMb();

  // Latency from the due time, lateness, and the server's split.
  std::vector<double> Latency, Late, QueueWait, Compile, HitLatency, Overhead;
  size_t Hits = 0;
  for (size_t I = 0; I < Recs.size(); ++I) {
    const Record &Rec = Recs[I];
    Latency.push_back(msBetween(Rec.Due, Rec.Done));
    Late.push_back(msBetween(Rec.Due, Rec.Sent));
    const WireResponse &W = Rec.Reply;
    QueueWait.push_back(W.QueueWaitMicros / 1000.0);
    // A cache replay carries the original's stage times verbatim.
    const Arrival &Ar = In.OpenLoop[I];
    const WireResponse &O = Recs[Ar.Original].Reply;
    bool Hit = Ar.Repeat && W.FrontendMicros == O.FrontendMicros &&
               W.TransformMicros == O.TransformMicros &&
               W.BackendMicros == O.BackendMicros;
    if (Hit) {
      ++Hits;
      HitLatency.push_back(Latency.back());
      continue;
    }
    double CompileMs =
        (W.FrontendMicros + W.TransformMicros + W.BackendMicros) / 1000.0;
    Compile.push_back(CompileMs);
    Overhead.push_back(msBetween(Rec.Sent, Rec.Done) - QueueWait.back() -
                       CompileMs);
  }
  const StatsRegistry &St = Svc->FinalStats;
  uint64_t CacheHits = St.get("service.cacheHits");
  uint64_t CacheLookups = CacheHits + St.get("service.cacheMisses");
  double AdvShare = double(Adversarial) / double(Recs.size());
  double RepeatShare = double(Repeats) / double(Recs.size());
  Tail T = tailOf(Latency);

  if (A.Trace) {
    Tracer Tr;
    for (size_t I = 0; I < Recs.size(); ++I) {
      const Record &Rec = Recs[I];
      int Root = Tr.add("request", Rec.Due, Rec.Done, -1, I + 1);
      Tr.add("loadgen.late", Rec.Due, Rec.Sent, Root, I + 1);
      int Srv = Tr.add("net.round_trip", Rec.Sent, Rec.Done, Root, I + 1);
      // The server reports durations, not instants: lay them end to end
      // from the send, inside the round trip they belong to.
      auto At = Rec.Sent;
      auto us = [](uint64_t U) { return std::chrono::microseconds(U); };
      Tr.add("driver.queue_wait", At, At + us(Rec.Reply.QueueWaitMicros), Srv,
             I + 1);
      At += us(Rec.Reply.QueueWaitMicros);
      uint64_t C = Rec.Reply.FrontendMicros + Rec.Reply.TransformMicros +
                   Rec.Reply.BackendMicros;
      Tr.add("driver.compile", At, std::min(At + us(C), Rec.Done), Srv, I + 1);
    }
    R.set("driver.queue_wait_p50_ms", median(QueueWait), "ms");
    R.set("driver.queue_wait_p99_ms", quantile(QueueWait, 0.99), "ms");
    R.set("driver.compile_p50_ms", median(Compile), "ms");
    R.set("driver.cache_hit_ratio",
          CacheLookups ? double(CacheHits) / double(CacheLookups) : 0, "ratio");
    R.set("driver.cache_hit_p50_ms", median(HitLatency), "ms");
    R.set("driver.contexts_reused", double(St.get("service.contextsReused")),
          "count");
    R.set("driver.retry_after", double(Svc->Final.RetryAfterSent), "count");
    R.set("driver.worker_util", double(St.get("service.workerUtilization")),
          "%");
    R.set("net.overhead_p50_ms", median(Overhead), "ms");
    R.set("net.bytes_per_request",
          double(Svc->Final.BytesRead + Svc->Final.BytesWritten) /
              double(std::max<uint64_t>(Svc->Final.RequestsAdmitted, 1)),
          "B");
    R.set("net.retries", double(Retries), "count");
    R.set("net.reconnects", double(Reconnects), "count");
    R.set("loadgen.late_p99_ms", quantile(Late, 0.99), "ms");
    R.line("traced service: %zu open-loop requests, %zu cache hits seen by "
           "the client, %llu by the server over both phases",
           Recs.size(), Hits, (unsigned long long)CacheHits);
    if (!Tr.writeChromeTrace(A.OutDir + "/trace-service.json"))
      R.line("warning: could not write the trace file");
    return;
  }

  R.set("setup_s", SetupS, "s");
  R.set("peak_rss_mb", PeakMb, "MB");
  // The median, not the tail: on a shared machine the p99 at this rate
  // moved between 3.5 and 6.5 ms from run to run with other tenants' load.
  R.set("op_ms", median(Latency), "ms");
  R.set("work_per_s", Capacity, "1/s");
  R.line("service_p50_ms      %.4f ms  at %.0f req/s offered, from each "
         "request's due time (%zu requests)",
         median(Latency), RateRps, Latency.size());
  R.line("service_p%d_ms      %.4f ms", T.Pct, T.Value);
  R.line("service_capacity    %.1f req/s  closed loop, %u connections: "
         "median of %u slices (min %.1f, max %.1f)",
         Capacity, Connections, Slices,
         *std::min_element(SliceCapacity.begin(), SliceCapacity.end()),
         *std::max_element(SliceCapacity.begin(), SliceCapacity.end()));
  R.line("loadgen.late_p99_ms %.4f ms", quantile(Late, 0.99));
  R.line("mix                 repeats %.1f%% (cache hits %.1f%% measured), "
         "adversarial %.1f%%",
         100.0 * RepeatShare, 100.0 * double(Hits) / double(Recs.size()),
         100.0 * AdvShare);
  R.line("peak_rss_mb         %.1f MB  (%s)", PeakMb,
         RssFromTimedPhase ? "timed phase" : "whole process");
  R.line("setup_s             %.4f s  (median of %u set-ups)", SetupS,
         SetupReps);
}

std::string serviceInputs(const RunArgs &A) {
  Inputs In = makeInputs(A.Seed, A.Seconds);
  Fingerprint FP;
  for (const Arrival &Ar : In.OpenLoop)
    FP = fingerprintString(toWire(In, Ar, 0, 0).Sources.back().Text,
                           sourcesFingerprint(In.Programs[Ar.Prog].Sources));
  for (const Arrival &Ar : In.Closed)
    FP = fingerprintString(toWire(In, Ar, 0, 0).Sources.back().Text, FP);
  return FP.hex();
}

} // namespace perfbench
