//===----------------------------------------------------------------------===//
///
/// \file
/// The `guest` workload: guest programs run as users run them. Set-up
/// compiles and links a fixed program set — the ClosureHeavy,
/// MegaMethods, Mixed and DeepInheritance families at seeds derived from
/// the run's seed, plus the 12 corpus programs. The timed part runs each
/// program in a fresh VM over its LinkedProgram (construct, runMain,
/// destroy), one pass over the set after another, until the time is up.
/// The operation whose time is reported is a pass: one generated program
/// runs only a few thousand oracle instructions, so single runs differ
/// by program more than by anything the VM does. No compiler
/// layer runs while timing; bytecode the compiler emits differently
/// still shows here.
///
/// References: a corpus program's hand-written ExpectedOutput; for a
/// generated program, the tree-walking interpreter running the
/// StandardUnfused pipeline's output. The tree-walker's step count is
/// also the work unit of the throughput (oracle instructions), which
/// superinstruction fusion does not distort.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Compile.h"

#include "backend/Interpreter.h"
#include "backend/Linker.h"
#include "backend/VM.h"
#include "driver/Driver.h"
#include "workload/Corpus.h"
#include "workload/ProgramGenerator.h"

#include <memory>

using namespace mpc;

namespace perfbench {
namespace {

/// Fixed parameters of the workload.
constexpr double FamilyScale = 4.0;
/// Seeds per family. One generated program runs a few thousand oracle
/// instructions and their count varies severalfold from seed to seed, so
/// several seeds per family keep a pass's mix alike across run seeds.
constexpr unsigned SeedsPerFamily = 32;
const Family GuestFamilies[] = {Family::ClosureHeavy, Family::MegaMethods,
                                Family::Mixed, Family::DeepInheritance};

/// One program, compiled and linked by the path under test, with its
/// reference behaviour.
struct GuestProgram {
  std::string Name;
  std::unique_ptr<CompilerContext> Comp;
  std::unique_ptr<LinkedProgram> Linked;
  Symbol *Entry = nullptr;
  std::string ExpectedOutput;
  bool ExpectedUncaught = false;
  std::string ExpectedError;
  uint64_t OracleSteps = 0;
};

GuestProgram prepare(std::string Name, std::vector<SourceInput> Sources,
                     const std::string *HandWritten) {
  GuestProgram G;
  G.Name = std::move(Name);
  G.Comp = std::make_unique<CompilerContext>();
  {
    // The VM needs the context (symbols, types) and the linked program,
    // not the trees: they are dropped here, as a user's runner would.
    CompileOutput Out =
        compileProgram(*G.Comp, Sources, PipelineKind::StandardFused);
    if (G.Comp->diags().hasErrors() || Out.EntryPoints.empty())
      throw std::runtime_error(G.Name + ": compile failed");
    G.Linked = std::make_unique<LinkedProgram>(linkProgram(Out.Prog, *G.Comp));
    if (!G.Linked->Failures.empty())
      throw std::runtime_error(G.Name + ": link failed");
    G.Entry = Out.EntryPoints.front();
  }

  // Reference behaviour: the tree-walker over the unfused pipeline's
  // trees. Its step count is the oracle instruction count.
  CompilerContext RefComp;
  CompileOutput RefOut =
      compileProgram(RefComp, std::move(Sources), PipelineKind::StandardUnfused);
  if (RefComp.diags().hasErrors() || RefOut.EntryPoints.empty())
    throw std::runtime_error(G.Name + ": reference compile failed");
  Interpreter Oracle(RefComp, RefOut.Units);
  ExecResult Ref = Oracle.runMain(RefOut.EntryPoints.front());
  G.OracleSteps = Ref.StepsExecuted;
  if (HandWritten) {
    G.ExpectedOutput = *HandWritten;
  } else {
    G.ExpectedOutput = Ref.Output;
    G.ExpectedUncaught = Ref.Uncaught;
    G.ExpectedError = Ref.Error;
  }
  return G;
}

std::vector<GuestProgram> setUp(uint64_t Seed) {
  std::vector<GuestProgram> Set;
  unsigned I = 0;
  for (Family F : GuestFamilies)
    for (unsigned K = 0; K < SeedsPerFamily; ++K) {
      uint64_t S = deriveSeed(Seed, 100 + I++);
      Set.push_back(prepare(std::string(familyName(F)) + "#" +
                                std::to_string(S),
                            generateFamily(F, S, FamilyScale), nullptr));
    }
  for (const CorpusProgram &C : corpusPrograms())
    Set.push_back(prepare(C.Name, {{C.Name + ".scala", C.Source}},
                          &C.ExpectedOutput));
  return Set;
}

/// Times of one run of one program.
struct RunTimes {
  double ConstructUs = 0, RunUs = 0, OpMs = 0;
};

RunTimes runOnce(RunResult &R, GuestProgram &G, Tracer *Tr, uint64_t Job) {
  RunTimes T;
  auto T0 = Clock::now();
  int Root = Tr ? Tr->begin("program", -1, Job) : -1;
  ExecResult Res;
  Clock::time_point T1, T2;
  {
    int S = Tr ? Tr->begin("vm.construct", Root, Job) : -1;
    VM M(*G.Comp, *G.Linked);
    T1 = Clock::now();
    if (Tr) {
      Tr->end(S);
      S = Tr->begin("vm.run", Root, Job);
    }
    Res = M.runMain(G.Entry);
    T2 = Clock::now();
    if (Tr)
      Tr->end(S);
  }
  if (Tr)
    Tr->end(Root);
  auto T3 = Clock::now();
  T.ConstructUs = msBetween(T0, T1) * 1000.0;
  T.RunUs = msBetween(T1, T2) * 1000.0;
  T.OpMs = msBetween(T0, T3);
  bool Ok = Res.Output == G.ExpectedOutput &&
            Res.Uncaught == G.ExpectedUncaught && Res.Error == G.ExpectedError;
  R.check(Ok, G.Name + ": VM output differs from the reference");
  return T;
}

uint64_t vmCounter(std::vector<GuestProgram> &Set, const char *Key) {
  uint64_t N = 0;
  for (GuestProgram &G : Set)
    N += G.Comp->stats().get(Key);
  return N;
}

} // namespace

void runGuest(const RunArgs &A, RunResult &R) {
  std::vector<GuestProgram> Set;
  double SetupS = medianSeconds(SetupReps, [&] {
    Set.clear();
    Set = setUp(A.Seed);
  });
  uint64_t Instrs = 0, StepsPerPass = 0;
  for (const GuestProgram &G : Set) {
    Instrs += G.Linked->totalInstructions();
    StepsPerPass += G.OracleSteps;
  }
  R.line("guest: %zu programs (%zu generated at scale %.1f + %zu corpus), "
         "%llu oracle instructions per pass, seed %llu",
         Set.size(), std::size(GuestFamilies) * SeedsPerFamily, FamilyScale,
         corpusPrograms().size(), (unsigned long long)StepsPerPass,
         (unsigned long long)A.Seed);

  // Warm-up pass: threads each program's code and fills its inline
  // caches, which live in the LinkedProgram, not in the VM.
  for (GuestProgram &G : Set)
    runOnce(R, G, nullptr, 0);
  bool RssFromTimedPhase = restartPeakRss();

  const char *Keys[] = {"backend.vm.steps",         "backend.vm.ic.call.hits",
                        "backend.vm.ic.call.misses", "backend.vm.ic.field.hits",
                        "backend.vm.ic.field.misses", "backend.vm.frames",
                        "backend.vm.alloc.objects",  "backend.vm.alloc.arrays"};
  uint64_t Before[std::size(Keys)];
  for (size_t K = 0; K < std::size(Keys); ++K)
    Before[K] = vmCounter(Set, Keys[K]);

  Tracer Tr;
  Tracer *TrP = A.Trace ? &Tr : nullptr;
  std::vector<double> PassMs, PassConstructUs, PassRunUs;
  uint64_t Passes = 0, Job = 0;
  auto Deadline = Clock::now() + std::chrono::duration<double>(A.Seconds);
  do {
    double C = 0, Run = 0, Ms = 0;
    for (GuestProgram &G : Set) {
      RunTimes T = runOnce(R, G, TrP, ++Job);
      Ms += T.OpMs;
      C += T.ConstructUs;
      Run += T.RunUs;
    }
    PassMs.push_back(Ms);
    PassConstructUs.push_back(C);
    PassRunUs.push_back(Run);
    ++Passes;
  } while (Clock::now() < Deadline);

  uint64_t Delta[std::size(Keys)];
  for (size_t K = 0; K < std::size(Keys); ++K)
    Delta[K] = (vmCounter(Set, Keys[K]) - Before[K]) / Passes;
  // The fast decile of the pass times: other tenants' interference only
  // ever slows a pass, and it comes and goes.
  double FastPassMs = quantile(PassMs, 0.10);
  double OracleRate = double(StepsPerPass) / (FastPassMs / 1000.0);

  if (A.Trace) {
    auto Ratio = [](uint64_t Hits, uint64_t Misses) {
      return Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
    };
    R.set("vm.construct_us", median(PassConstructUs), "us");
    R.set("vm.run_us", median(PassRunUs), "us");
    R.set("vm.dispatches", double(Delta[0]), "count");
    R.set("vm.dispatches_per_oracle_instr",
          double(Delta[0]) / double(StepsPerPass), "ratio");
    R.set("vm.ic_call_hit_ratio", Ratio(Delta[1], Delta[2]), "ratio");
    R.set("vm.ic_field_hit_ratio", Ratio(Delta[3], Delta[4]), "ratio");
    R.set("vm.frames", double(Delta[5]), "count");
    R.set("vm.allocs", double(Delta[6] + Delta[7]), "count");
    R.set("backend.linked_instrs", double(Instrs), "count");
    R.line("traced guest: %llu passes; per pass: construct %.1f us, "
           "run %.1f us, %llu dispatches",
           (unsigned long long)Passes, median(PassConstructUs),
           median(PassRunUs), (unsigned long long)Delta[0]);
    if (!Tr.writeChromeTrace(A.OutDir + "/trace-guest.json"))
      R.line("warning: could not write the trace file");
    return;
  }

  Tail T = tailOf(PassMs);
  R.set("setup_s", SetupS, "s");
  R.set("peak_rss_mb", peakRssMb(), "MB");
  R.set("op_ms", FastPassMs, "ms");
  R.set("work_per_s", OracleRate, "1/s");
  R.line("exec_minstr_per_s   %.3f M/s  (oracle instructions per pass over "
         "the fast-decile pass time, %llu passes)",
         OracleRate / 1e6, (unsigned long long)Passes);
  R.line("pass_ms             p10 %.4f ms, p50 %.4f ms, p%d %.4f ms", FastPassMs,
         median(PassMs), T.Pct, T.Value);
  R.line("bytecode_instrs     %llu count", (unsigned long long)Instrs);
  R.line("peak_rss_mb         %.1f MB  (%s)", peakRssMb(),
         RssFromTimedPhase ? "timed phase" : "whole process");
  R.line("setup_s             %.4f s  (median of %u set-ups)", SetupS,
         SetupReps);
}

std::string guestInputs(const RunArgs &A) {
  Fingerprint FP;
  unsigned I = 0;
  for (Family F : GuestFamilies)
    for (unsigned K = 0; K < SeedsPerFamily; ++K) {
      uint64_t S = deriveSeed(A.Seed, 100 + I++);
      FP = fingerprintString(
          sourcesFingerprint(generateFamily(F, S, FamilyScale)).hex(), FP);
    }
  return FP.hex();
}

} // namespace perfbench
