//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the workloads: seed derivation, the reference
/// renderings outputs are checked against, and a streaming hash of a
/// lowered-tree dump.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMPILE_H
#define PERFBENCH_COMPILE_H

#include "core/CompilerContext.h"
#include "frontend/Frontend.h"
#include "support/Fingerprint.h"

#include <string>
#include <vector>

namespace perfbench {

/// Derives an independent seed for one input stream of a workload.
uint64_t deriveSeed(uint64_t Seed, uint64_t Salt);

/// The typed lowered-tree dump of \p Units in the compile service's
/// reply format ("// === file ===" header, types shown, one per unit).
std::string dumpUnits(const std::vector<mpc::CompilationUnit> &Units);

/// \p Dump with fresh-name counters rewritten ("$7" -> "$N"). Phase
/// interleaving legally renumbers them, so pipelines are compared on
/// normalized dumps.
std::string normalizeFreshNames(const std::string &Dump);

/// Fingerprint of normalizeFreshNames(dumpUnits(\p Units)), computed
/// without materializing the dump (a code-base dump is tens of MB).
mpc::Fingerprint dumpFingerprint(const std::vector<mpc::CompilationUnit> &Units);

/// Rendered diagnostics of \p Comp (the service's DiagText format).
std::string renderDiagnostics(mpc::CompilerContext &Comp);

/// Fingerprint of a source set (file names and texts, in order).
mpc::Fingerprint sourcesFingerprint(const std::vector<mpc::SourceInput> &S);

} // namespace perfbench

#endif // PERFBENCH_COMPILE_H
