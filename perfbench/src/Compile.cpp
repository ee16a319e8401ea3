#include "Compile.h"

#include "ast/TreePrinter.h"
#include "support/OStream.h"
#include "support/Rng.h"


using namespace mpc;

namespace perfbench {

uint64_t deriveSeed(uint64_t Seed, uint64_t Salt) {
  Rng R(Seed ^ (Salt * 0x9e3779b97f4a7c15ULL));
  return R.next();
}

namespace {

/// Rewrites fresh-name counters ("$7" -> "$N") in a byte stream: phase
/// interleaving legally changes the counter values, never the shape, so
/// the fused and unfused pipelines are equal up to this rewrite (the
/// repository's differential test uses the same rule).
class FreshNameFilter {
public:
  template <typename Emit> void feed(const char *Data, size_t Size, Emit &&E) {
    for (size_t I = 0; I < Size; ++I) {
      char C = Data[I];
      bool Digit = C >= '0' && C <= '9';
      if (InDigits && Digit)
        continue;
      InDigits = false;
      if (AfterDollar && Digit) {
        E('N');
        InDigits = true;
        AfterDollar = false;
        continue;
      }
      E(C);
      AfterDollar = C == '$';
    }
  }

private:
  bool AfterDollar = false;
  bool InDigits = false;
};

/// Normalizes and hashes a byte stream in fixed-size chunks; identical
/// streams give identical fingerprints however the writer splits them.
class HashOStream : public OStream {
public:
  void write(const char *Data, size_t Size) override {
    Filter.feed(Data, Size, [this](char C) {
      Buf[Len++] = C;
      if (Len == sizeof(Buf))
        flush();
    });
  }
  Fingerprint finish() {
    flush();
    return FP;
  }

private:
  void flush() {
    if (Len > 0)
      FP = fingerprintBytes(Buf, Len, FP);
    Len = 0;
  }
  FreshNameFilter Filter;
  char Buf[1 << 16];
  size_t Len = 0;
  Fingerprint FP;
};

void printUnits(OStream &OS, const std::vector<CompilationUnit> &Units) {
  PrintOptions PO;
  PO.ShowTypes = true;
  for (const CompilationUnit &U : Units) {
    OS << "// === " << U.FileName << " ===\n";
    printTree(OS, U.Root.get(), PO);
    OS << '\n';
  }
}

} // namespace

std::string normalizeFreshNames(const std::string &Dump) {
  std::string Out;
  Out.reserve(Dump.size());
  FreshNameFilter F;
  F.feed(Dump.data(), Dump.size(), [&Out](char C) { Out += C; });
  return Out;
}

std::string dumpUnits(const std::vector<CompilationUnit> &Units) {
  StringOStream OS;
  printUnits(OS, Units);
  return OS.str();
}

Fingerprint dumpFingerprint(const std::vector<CompilationUnit> &Units) {
  HashOStream OS;
  printUnits(OS, Units);
  return OS.finish();
}

std::string renderDiagnostics(CompilerContext &Comp) {
  if (Comp.diags().all().empty())
    return {};
  StringOStream OS;
  Comp.diags().printAll(OS);
  return OS.str();
}

Fingerprint sourcesFingerprint(const std::vector<SourceInput> &S) {
  Fingerprint FP;
  for (const SourceInput &In : S)
    FP = fingerprintString(In.Text, fingerprintString(In.FileName, FP));
  return FP;
}

} // namespace perfbench
