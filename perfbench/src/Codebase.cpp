//===----------------------------------------------------------------------===//
///
/// \file
/// The `codebase` workload: the paper's evaluation setting. A generated
/// code base of paper size (stdlibProfile(1.0), ~35 kLOC in 84 units) is
/// compiled again and again on one thread, each time in a fresh
/// CompilerContext, from source to verified, linked bytecode
/// (compileProgram with StandardFused, then linkProgram).
///
/// Reference: the StandardUnfused pipeline's lowered-tree dump and linked
/// instruction count, computed during set-up. Every compile must equal it.
///
/// The traced run replays the public calls compileProgram makes — lex,
/// parse and type per the frontend, each phase group's runOnUnit,
/// generateCode — plus linkProgram, each in its own span, alternating
/// with untraced compiles so the tracing overhead is measured in the same
/// process. One extra compile counts nodes per group; it is not timed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Compile.h"

#include "backend/Linker.h"
#include "backend/Verifier.h"
#include "driver/Driver.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

using namespace mpc;

namespace perfbench {
namespace {

/// Fixed parameters of the workload.
constexpr double ProfileScale = 1.0;

struct Reference {
  std::vector<SourceInput> Sources;
  uint64_t Loc = 0;
  Fingerprint Dump;
  uint64_t LinkedInstrs = 0;
};

Reference setUp(uint64_t Seed) {
  Reference Ref;
  WorkloadProfile P = stdlibProfile(ProfileScale);
  P.Seed = deriveSeed(Seed, 1);
  Ref.Sources = generateWorkload(P);
  Ref.Loc = countLines(Ref.Sources);
  CompilerContext Comp;
  CompileOutput Out = compileProgram(Comp, Ref.Sources,
                                     PipelineKind::StandardUnfused);
  if (Comp.diags().hasErrors() || !Out.PlanErrors.empty())
    throw std::runtime_error("reference compile of the code base failed");
  Ref.Dump = dumpFingerprint(Out.Units);
  LinkedProgram L = linkProgram(Out.Prog, Comp);
  Ref.LinkedInstrs = L.totalInstructions();
  return Ref;
}

/// Checks one compile's products against the reference.
void checkCompile(RunResult &R, const Reference &Ref, CompilerContext &Comp,
                  const std::vector<CompilationUnit> &Units,
                  const std::vector<CheckFailure> &CheckFailures,
                  const LinkedProgram &L, const char *What) {
  std::string Why;
  if (Comp.diags().hasErrors())
    Why = "diagnostics";
  else if (!CheckFailures.empty())
    Why = "tree-checker failures";
  else if (!L.Failures.empty())
    Why = "bytecode verifier failures";
  else if (L.totalInstructions() != Ref.LinkedInstrs)
    Why = "linked instruction count differs from the reference";
  else if (dumpFingerprint(Units) != Ref.Dump)
    Why = "lowered-tree dump differs from the StandardUnfused reference";
  R.check(Why.empty(), std::string(What) + " compile: " + Why);
}

/// One untraced compile; returns its wall time in ms (context
/// construction through link, plus teardown; checks excluded).
double untracedCompile(RunResult &R, const Reference &Ref) {
  std::vector<SourceInput> Sources = Ref.Sources;
  auto T0 = Clock::now();
  auto Comp = std::make_unique<CompilerContext>();
  auto Out = std::make_unique<CompileOutput>(
      compileProgram(*Comp, std::move(Sources), PipelineKind::StandardFused));
  auto L = std::make_unique<LinkedProgram>(linkProgram(Out->Prog, *Comp));
  auto T1 = Clock::now();
  checkCompile(R, Ref, *Comp, Out->Units, Out->CheckFailures, *L,
               "untraced");
  auto T2 = Clock::now();
  L.reset();
  Out.reset();
  Comp.reset();
  auto T3 = Clock::now();
  return msBetween(T0, T1) + msBetween(T2, T3);
}

/// Exact per-group node counts of one compile (the counting compile).
struct GroupCounts {
  uint64_t NodesOut = 0;
  uint64_t NodesRebuilt = 0;
};

void collectNodes(const Tree *T, std::unordered_set<const Tree *> &Seen) {
  if (!T || !Seen.insert(T).second)
    return;
  for (const TreePtr &K : T->kids())
    collectNodes(K.get(), Seen);
}

/// What the traced compile measured besides its spans.
struct TracedCompile {
  double WallMs = 0;
  uint64_t Tokens = 0, SyntaxNodes = 0, Diagnostics = 0;
  uint64_t EmittedInstrs = 0, LinkedInstrs = 0;
  HeapStats Heap;
  uint64_t RealAllocs = 0, SlabHits = 0, PagesMapped = 0;
  /// Per group, in plan order: fused-engine counters (zero when unfused).
  std::vector<std::string> GroupNames;
  std::vector<uint64_t> Visited, Hooks, Pruned;
  std::vector<GroupCounts> Counts; // filled only when counting
};

/// Replays compileProgram + linkProgram call by call. With \p Tr every
/// call gets a span under one "compile" root; with \p Count the node
/// sets before and after every group are compared (untimed use only).
TracedCompile tracedCompile(RunResult &R, const Reference &Ref, Tracer *Tr,
                            uint64_t Job, bool Count) {
  TracedCompile TC;
  std::vector<SourceInput> Sources = Ref.Sources;
  auto T0 = Clock::now();
  int Root = Tr ? Tr->begin("compile", -1, Job) : -1;
  auto span = [&](const char *Name) {
    return Tr ? Tr->begin(Name, Root, Job) : -1;
  };
  auto close = [&](int Idx) {
    if (Tr)
      Tr->end(Idx);
  };

  int S = span("context");
  auto Comp = std::make_unique<CompilerContext>();
  Comp->options().FuseMiniphases = true;
  Comp->options().AlwaysCopy = false;
  close(S);

  S = span("plan");
  std::vector<std::string> PlanErrors;
  PhasePlan Plan = makeStandardPlan(/*Fuse=*/true, PlanErrors);
  close(S);

  // Frontend: the loop of runFrontEnd, one lex and one parse span per
  // source, then the whole-program typer.
  std::vector<ParsedUnit> Parsed;
  std::vector<Token> TokScratch;
  for (SourceInput &Src : Sources) {
    ParsedUnit PU;
    PU.FileName = Src.FileName;
    PU.FileId = Comp->diags().addFile(Src.FileName);
    PU.Source = std::move(Src.Text);
    PU.Arena = std::make_shared<SynArena>();
    S = span("frontend.lex");
    Lexer Lex(PU.Source, PU.FileId, Comp->names(), Comp->diags());
    SynList<Token> Toks = Lex.lexAll(*PU.Arena, TokScratch);
    close(S);
    S = span("frontend.parse");
    Parser P(Toks, *PU.Arena, Comp->names(), Comp->diags());
    PU.Unit = P.parseUnit();
    close(S);
    TC.Tokens += Toks.size();
    TC.SyntaxNodes += PU.Arena->nodeCount();
    Parsed.push_back(std::move(PU));
  }
  S = span("frontend.type");
  Typer Ty(*Comp);
  std::vector<CompilationUnit> Units = Ty.run(Parsed);
  close(S);
  TC.Diagnostics = Comp->diags().all().size();

  // Transform groups: TransformPipeline::run's loop.
  for (const PhaseGroup &G : Plan.groups()) {
    const std::string &Name = G.Members.front()->name();
    TC.GroupNames.push_back(Name);
    std::unordered_set<const Tree *> Before;
    std::vector<TreePtr> KeepAlive; // pins input nodes: no address reuse
    if (Count)
      for (const CompilationUnit &U : Units) {
        collectNodes(U.Root.get(), Before);
        KeepAlive.push_back(U.Root);
      }
    uint64_t V0 = G.isFused() ? G.Block->nodesVisited() : 0;
    uint64_t H0 = G.isFused() ? G.Block->hooksExecuted() : 0;
    uint64_t P0 = G.isFused() ? G.Block->subtreesPruned() : 0;
    S = span(("transform." + Name).c_str());
    if (G.isFused()) {
      for (CompilationUnit &U : Units)
        G.Block->runOnUnit(U, *Comp);
    } else {
      for (Phase *Ph : G.Members)
        for (CompilationUnit &U : Units)
          Ph->runOnUnit(U, *Comp);
    }
    close(S);
    TC.Visited.push_back(G.isFused() ? G.Block->nodesVisited() - V0 : 0);
    TC.Hooks.push_back(G.isFused() ? G.Block->hooksExecuted() - H0 : 0);
    TC.Pruned.push_back(G.isFused() ? G.Block->subtreesPruned() - P0 : 0);
    if (Count) {
      std::unordered_set<const Tree *> After;
      for (const CompilationUnit &U : Units)
        collectNodes(U.Root.get(), After);
      GroupCounts C;
      C.NodesOut = After.size();
      for (const Tree *T : After)
        C.NodesRebuilt += !Before.count(T);
      TC.Counts.push_back(C);
    }
  }

  S = span("backend.codegen");
  Program Prog = generateCode(Units, *Comp);
  if (auto *CEP = findEntryPoints(Plan))
    Prog.EntryPoints = CEP->entryPoints();
  close(S);
  S = span("backend.link");
  auto L = std::make_unique<LinkedProgram>(linkProgram(Prog, *Comp));
  close(S);
  if (Tr)
    Tr->end(Root);
  auto T1 = Clock::now();

  // The linker verifies internally; a separate verifyProgram call times
  // the verifier on its own. It is not part of the compile.
  int V = Tr ? Tr->begin("backend.verify", -1, Job) : -1;
  std::vector<VerifyFailure> VF = verifyProgram(Prog);
  if (Tr)
    Tr->end(V);

  TC.EmittedInstrs = Prog.totalInstructions();
  TC.LinkedInstrs = L->totalInstructions();
  TC.Heap = Comp->heap().stats();
  const auto &BS = Comp->heap().backendStats();
  TC.RealAllocs = BS.SystemCalls;
  TC.SlabHits = BS.SlabAllocs;
  TC.PagesMapped = BS.PagesMapped;
  std::vector<CheckFailure> NoChecks;
  checkCompile(R, Ref, *Comp, Units, NoChecks, *L,
               Count ? "counting" : "traced");
  R.check(VF.empty() && PlanErrors.empty(),
          "traced compile: verifier or plan errors");
  auto T2 = Clock::now();
  L.reset();
  Units.clear();
  Parsed.clear();
  Comp.reset();
  auto T3 = Clock::now();
  TC.WallMs = msBetween(T0, T1) + msBetween(T2, T3);
  return TC;
}

} // namespace

void runCodebase(const RunArgs &A, RunResult &R) {
  Reference Ref;
  double SetupS = medianSeconds(SetupReps, [&] { Ref = setUp(A.Seed); });
  double Kloc = double(Ref.Loc) / 1000.0;
  R.line("codebase: stdlibProfile(%.1f), %zu units, %llu lines, seed %llu",
         ProfileScale, Ref.Sources.size(), (unsigned long long)Ref.Loc,
         (unsigned long long)A.Seed);

  // Warm-up compile: caches and allocator state settle before timing.
  untracedCompile(R, Ref);
  bool RssFromTimedPhase = restartPeakRss();
  auto Deadline = Clock::now() + std::chrono::duration<double>(A.Seconds);

  std::vector<double> Untraced;
  if (!A.Trace) {
    do
      Untraced.push_back(untracedCompile(R, Ref));
    while (Clock::now() < Deadline);
    // The fast decile, not the median: on a shared machine, interference
    // from other tenants only ever slows a compile, and it comes and goes
    // over seconds to minutes. A run partly inside a slow spell moves its
    // median, not its fast decile.
    double Fast = quantile(Untraced, 0.10);
    double Rate = double(Ref.Loc) / (Fast / 1000.0);
    R.set("setup_s", SetupS, "s");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    R.set("op_ms", Fast, "ms");
    R.set("work_per_s", Rate, "1/s");
    R.line("compile_kloc_per_s  %.3f kLOC/s  (at the fast-decile compile time)",
           Rate / 1000.0);
    R.line("compile_ms          p10 %.2f ms, p50 %.2f ms, max %.2f ms  "
           "(%zu compiles)",
           Fast, median(Untraced),
           *std::max_element(Untraced.begin(), Untraced.end()),
           Untraced.size());
    R.line("bytecode_instrs     %llu count",
           (unsigned long long)Ref.LinkedInstrs);
    R.line("peak_rss_mb         %.1f MB  (%s)", peakRssMb(),
           RssFromTimedPhase ? "timed phase" : "whole process");
    R.line("setup_s             %.4f s  (median of %u set-ups)", SetupS,
           SetupReps);
    return;
  }

  // Traced run: alternate untraced and traced compiles.
  Tracer Tr;
  std::vector<double> Traced, Coverage;
  TracedCompile Last;
  uint64_t Job = 0;
  do {
    Untraced.push_back(untracedCompile(R, Ref));
    size_t First = Tr.spans().size();
    Last = tracedCompile(R, Ref, &Tr, ++Job, /*Count=*/false);
    Traced.push_back(Last.WallMs);
    // The first span of the job is its "compile" root.
    double RootUs = Tr.durationUs(int(First));
    double ChildUs = 0;
    for (size_t I = First + 1; I < Tr.spans().size(); ++I)
      if (Tr.spans()[I].Parent == int(First))
        ChildUs += Tr.durationUs(int(I));
    Coverage.push_back(100.0 * ChildUs / RootUs);
  } while (Clock::now() < Deadline);
  TracedCompile Counted = tracedCompile(R, Ref, nullptr, 0, /*Count=*/true);

  // Per-compile sums of each span name's self time; report the median.
  std::vector<double> Self = Tr.selfTimesUs();
  auto perCompileMedian = [&](const std::string &Name) {
    std::vector<double> PerJob(Job + 1, 0.0);
    for (size_t I = 0; I < Tr.spans().size(); ++I)
      if (Tr.spans()[I].Name == Name)
        PerJob[Tr.spans()[I].Job] += Self[I] / 1000.0;
    PerJob.erase(PerJob.begin()); // job ids start at 1
    return median(PerJob);
  };

  R.set("frontend.lex_ms", perCompileMedian("frontend.lex"), "ms");
  R.set("frontend.parse_ms", perCompileMedian("frontend.parse"), "ms");
  R.set("frontend.type_ms", perCompileMedian("frontend.type"), "ms");
  R.set("frontend.tokens", double(Last.Tokens), "count");
  R.set("frontend.syntax_nodes", double(Last.SyntaxNodes), "count");
  R.set("frontend.diagnostics", double(Last.Diagnostics), "count");
  uint64_t Visits = 0, Hooks = 0;
  for (size_t G = 0; G < Last.GroupNames.size(); ++G) {
    std::string P = "transform." + Last.GroupNames[G];
    R.set(P + ".ms", perCompileMedian(P), "ms");
    R.set(P + ".nodes_out", double(Counted.Counts[G].NodesOut), "count");
    R.set(P + ".nodes_rebuilt", double(Counted.Counts[G].NodesRebuilt),
          "count");
    if (Last.GroupNames[G] != "Erasure") {
      R.set(P + ".nodes_visited", double(Last.Visited[G]), "count");
      R.set(P + ".hooks_executed", double(Last.Hooks[G]), "count");
      R.set(P + ".subtrees_pruned", double(Last.Pruned[G]), "count");
    }
    Visits += Last.Visited[G];
    Hooks += Last.Hooks[G];
  }
  R.set("transform.hooks_per_visit", Visits ? double(Hooks) / Visits : 0,
        "ratio");
  R.set("heap.sim_bytes_allocated", double(Last.Heap.AllocatedBytes), "B");
  R.set("heap.real_allocs", double(Last.RealAllocs), "count");
  R.set("heap.slab_hits", double(Last.SlabHits), "count");
  R.set("heap.pages_mapped", double(Last.PagesMapped), "count");
  R.set("backend.codegen_ms", perCompileMedian("backend.codegen"), "ms");
  R.set("backend.link_ms", perCompileMedian("backend.link"), "ms");
  R.set("backend.verify_ms", perCompileMedian("backend.verify"), "ms");
  R.set("backend.emitted_instrs", double(Last.EmittedInstrs), "count");
  R.set("backend.linked_instrs", double(Last.LinkedInstrs), "count");
  double UntracedRate = double(Ref.Loc) / median(Untraced);
  double TracedRate = double(Ref.Loc) / median(Traced);
  R.set("trace.overhead_pct", 100.0 * (UntracedRate / TracedRate - 1.0),
        "%");
  R.set("trace.span_coverage_pct", median(Coverage), "%");
  R.line("traced codebase: %zu traced + %zu untraced compiles, %.1f kLOC",
         Traced.size(), Untraced.size(), Kloc);
  R.line("tracing overhead %.2f%% (traced %.3f vs untraced %.3f kLOC/s); "
         "top-level spans cover %.2f%% of each compile",
         R.get("trace.overhead_pct"), TracedRate, UntracedRate,
         median(Coverage));
  if (!Tr.writeChromeTrace(A.OutDir + "/trace-codebase.json"))
    R.line("warning: could not write the trace file");
}

std::string codebaseInputs(const RunArgs &A) {
  WorkloadProfile P = stdlibProfile(ProfileScale);
  P.Seed = deriveSeed(A.Seed, 1);
  return sourcesFingerprint(generateWorkload(P)).hex();
}

} // namespace perfbench
