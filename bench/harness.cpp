//===-- bench/harness.cpp - Structured benchmark harness ------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "flow/VirtualOrganization.h"
#include "obs/Diff.h"
#include "obs/Metrics.h"
#include "support/Check.h"
#include "support/Flags.h"
#include "support/Json.h"
#include "support/Table.h"
#include "sweep/Stats.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace cws;
using namespace cws::bench;

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

BenchRegistry &BenchRegistry::global() {
  static BenchRegistry R;
  return R;
}

void BenchRegistry::add(const BenchInfo &Info) { Benches.push_back(Info); }

std::vector<const BenchInfo *> BenchRegistry::all() const {
  std::vector<const BenchInfo *> Out;
  Out.reserve(Benches.size());
  for (const BenchInfo &B : Benches)
    Out.push_back(&B);
  std::sort(Out.begin(), Out.end(),
            [](const BenchInfo *A, const BenchInfo *B) {
              return std::string(A->Name) < B->Name;
            });
  return Out;
}

//===----------------------------------------------------------------------===//
// BenchContext
//===----------------------------------------------------------------------===//

void BenchContext::setConfig(const std::string &CanonicalText) {
  ConfigText = CanonicalText;
}

void BenchContext::setSeed(uint64_t S) { Seed = S; }

void BenchContext::setExecSeed(uint64_t S) {
  ExecSeed = S;
  ExecSeedSet = true;
}

void BenchContext::setInvalidation(const std::string &Mode) {
  Invalidation = Mode;
}

void BenchContext::setWork(const std::string &Counter, uint64_t Value) {
  if (!Measured)
    return;
  for (auto &W : Work)
    if (W.first == Counter) {
      W.second = Value;
      return;
    }
  Work.push_back({Counter, Value});
}

void BenchContext::addMetric(const std::string &Name, double Sample) {
  if (!Measured)
    return;
  RepMetrics[Name] = Sample;
}

void BenchContext::check(const std::string &What, bool Ok) {
  if (!Measured)
    return;
  Checks.push_back({What, Ok});
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

namespace cws {
namespace bench {

/// Drives the warmup/measured repetitions of one bench; friend of
/// BenchContext so the harness owns the per-repetition state machine.
struct BenchRunner {
  static BenchRun run(const BenchInfo &Info, int Reps, int Warmup,
                      const std::string &Cli) {
    if (Reps <= 0)
      Reps = Info.DefaultReps;
    if (Warmup < 0)
      Warmup = Info.DefaultWarmup;
    CWS_CHECK(Reps > 0, "a bench needs at least one measured repetition");

    BenchRun Run;
    Run.Info = &Info;
    Run.Reps = Reps;
    Run.Warmup = Warmup;

    BenchContext Ctx;
    for (int W = 0; W < Warmup; ++W) {
      Ctx.Measured = false;
      Info.Fn(Ctx);
    }

    if (Info.Profile) {
      obs::Profiler::global().reset();
      obs::Profiler::global().enable();
    }

    sweep::SweepAccumulator Acc({{std::string("bench:") + Info.Name, {}}},
                                static_cast<uint64_t>(Reps));
    std::vector<std::pair<std::string, uint64_t>> RefWork;
    // Merged check verdicts: a check passes only when it passed in
    // every measured repetition.
    std::vector<CheckOutcome> Merged;
    auto MergeCheck = [&Merged](const std::string &What, bool Ok) {
      for (auto &C : Merged)
        if (C.What == What) {
          C.Pass = C.Pass && Ok;
          return;
        }
      Merged.push_back({What, Ok});
    };

    for (int R = 0; R < Reps; ++R) {
      Ctx.Measured = true;
      Ctx.Rep = static_cast<size_t>(R);
      Ctx.Work.clear();
      Ctx.RepMetrics.clear();
      Ctx.Checks.clear();
      auto T0 = std::chrono::steady_clock::now();
      Info.Fn(Ctx);
      double WallUs =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - T0)
              .count();
      Ctx.RepMetrics["wall_us"] = WallUs;
      Acc.addRun(0, Ctx.RepMetrics);
      for (const CheckOutcome &C : Ctx.Checks)
        MergeCheck(C.What, C.Pass);
      // Work counters are deterministic quantities of a fixed
      // workload: every measured repetition must report the same set
      // and values, or the counter is not a counter.
      std::sort(Ctx.Work.begin(), Ctx.Work.end());
      if (R == 0)
        RefWork = Ctx.Work;
      else if (Ctx.Work != RefWork)
        MergeCheck("work_stable", false);
    }

    if (Info.Profile) {
      obs::Profiler::global().disable();
      Run.Profile = obs::Profiler::global().snapshot();
      obs::Profiler::global().reset();
    }

    Run.Work = std::move(RefWork);
    std::sort(Merged.begin(), Merged.end(),
              [](const CheckOutcome &A, const CheckOutcome &B) {
                return A.What < B.What;
              });
    Run.Checks = std::move(Merged);
    obs::SweepStore Store = Acc.finalize();
    CWS_CHECK(Store.Scenarios.size() == 1, "one bench pools one scenario");
    Run.Metrics = Store.Scenarios[0].Indicators;

    Run.Prov.Stamped = true;
    Run.Prov.Seed = Ctx.Seed;
    Run.Prov.ConfigHash = obs::configHashOf(
        std::string("bench ") + Info.Name + "\n" + Ctx.ConfigText);
    Run.Prov.ScenarioId = std::string("bench:") + Info.Name;
    Run.Prov.Shards = static_cast<int64_t>(resolveShardCount(0));
    Run.Prov.Cli = Cli;
    Run.ExecSeed = Ctx.ExecSeedSet ? Ctx.ExecSeed : Ctx.Seed;
    Run.Invalidation = Ctx.Invalidation;
    return Run;
  }
};

} // namespace bench
} // namespace cws

BenchRun cws::bench::runBench(const BenchInfo &Info, int Reps, int Warmup,
                              const std::string &Cli) {
  return BenchRunner::run(Info, Reps, Warmup, Cli);
}

bool BenchRun::passed() const {
  for (const CheckOutcome &C : Checks)
    if (!C.Pass)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// JSON writer
//===----------------------------------------------------------------------===//

static void appendStats(std::string &S, const obs::SweepIndicatorStats &St) {
  S += "{\"n\": " + std::to_string(St.N);
  S += ", \"mean\": " + obs::renderNumber(St.Mean);
  S += ", \"stddev\": " + obs::renderNumber(St.Stddev);
  S += ", \"ci95\": " + obs::renderNumber(St.Ci95);
  S += ", \"p50\": " + obs::renderNumber(St.P50);
  S += ", \"p90\": " + obs::renderNumber(St.P90);
  S += ", \"p99\": " + obs::renderNumber(St.P99);
  S += ", \"min\": " + obs::renderNumber(St.Min);
  S += ", \"max\": " + obs::renderNumber(St.Max);
  S += "}";
}

std::string BenchRun::json() const {
  std::string S;
  S += "{\n";
  S += "  \"schema\": \"cws-bench-v1\",\n";
  S += "  \"name\": \"" + json::escape(Info->Name) + "\",\n";
  S += "  \"description\": \"" + json::escape(Info->Description) + "\",\n";
  S += "  \"provenance\": {\"seed\": " + std::to_string(Prov.Seed);
  S += ", \"exec_seed\": " + std::to_string(ExecSeed);
  S += ", \"config_hash\": \"" + json::escape(Prov.ConfigHash) + "\"";
  S += ", \"scenario\": \"" + json::escape(Prov.ScenarioId) + "\"";
  S += ", \"shards\": " + std::to_string(Prov.Shards);
  S += ", \"invalidation\": \"" + json::escape(Invalidation) + "\"";
  S += ", \"cli\": \"" + json::escape(Prov.Cli) + "\"},\n";
  S += "  \"reps\": " + std::to_string(Reps) + ",\n";
  S += "  \"warmup\": " + std::to_string(Warmup) + ",\n";
  S += "  \"work\": {";
  for (size_t I = 0; I < Work.size(); ++I) {
    if (I)
      S += ", ";
    S += "\"" + json::escape(Work[I].first) +
         "\": " + std::to_string(Work[I].second);
  }
  S += "},\n";
  S += "  \"checks\": [";
  for (size_t I = 0; I < Checks.size(); ++I) {
    if (I)
      S += ", ";
    S += "{\"what\": \"" + json::escape(Checks[I].What) + "\", \"pass\": ";
    S += Checks[I].Pass ? "true" : "false";
    S += "}";
  }
  S += "],\n";
  S += "  \"metrics\": {";
  bool FirstMetric = true;
  for (const auto &M : Metrics) {
    if (!FirstMetric)
      S += ",";
    FirstMetric = false;
    S += "\n    \"" + json::escape(M.first) + "\": ";
    appendStats(S, M.second);
  }
  S += Metrics.empty() ? "},\n" : "\n  },\n";
  S += "  \"profile\": [";
  bool FirstPhase = true;
  for (const obs::PhaseStats &P : Profile) {
    if (!FirstPhase)
      S += ",";
    FirstPhase = false;
    S += "\n    {\"name\": \"" + json::escape(P.Name) + "\"";
    S += ", \"count\": " + std::to_string(P.Count);
    S += ", \"total_us\": " + obs::renderNumber(P.TotalUs);
    S += ", \"self_us\": " + obs::renderNumber(P.SelfUs);
    S += ", \"p50_us\": " + obs::renderNumber(P.P50Us);
    S += ", \"p99_us\": " + obs::renderNumber(P.P99Us);
    S += ", \"work\": {";
    for (size_t I = 0; I < P.Work.size(); ++I) {
      if (I)
        S += ", ";
      S += "\"" + json::escape(P.Work[I].first) +
           "\": " + std::to_string(P.Work[I].second);
    }
    S += "}}";
  }
  S += Profile.empty() ? "]\n" : "\n  ]\n";
  S += "}\n";
  return S;
}

//===----------------------------------------------------------------------===//
// JSON reader
//===----------------------------------------------------------------------===//

bool cws::bench::parseBenchJson(const std::string &Text, ParsedBench &Out,
                                std::string &Error) {
  json::Value Doc;
  if (!json::parse(Text, Doc, Error))
    return false;
  std::string Schema;
  if (!Doc.getString("schema", Schema) || Schema != "cws-bench-v1") {
    Error = "not a cws-bench-v1 document";
    return false;
  }
  if (!Doc.getString("name", Out.Name) || Out.Name.empty()) {
    Error = "missing bench name";
    return false;
  }
  Doc.getString("description", Out.Description);
  const json::Value *Prov = Doc.find("provenance");
  if (!Prov || !Prov->isObject()) {
    Error = "missing provenance object";
    return false;
  }
  double Num = 0;
  if (Prov->getNumber("seed", Num))
    Out.Seed = static_cast<uint64_t>(Num);
  if (Prov->getNumber("exec_seed", Num))
    Out.ExecSeed = static_cast<uint64_t>(Num);
  if (!Prov->getString("config_hash", Out.ConfigHash)) {
    Error = "missing provenance config_hash";
    return false;
  }
  Prov->getString("scenario", Out.Scenario);
  Prov->getString("invalidation", Out.Invalidation);
  Prov->getString("cli", Out.Cli);
  if (Prov->getNumber("shards", Num))
    Out.Shards = static_cast<int64_t>(Num);
  if (Doc.getNumber("reps", Num))
    Out.Reps = static_cast<int64_t>(Num);
  if (Doc.getNumber("warmup", Num))
    Out.Warmup = static_cast<int64_t>(Num);

  if (const json::Value *Work = Doc.find("work")) {
    if (!Work->isObject()) {
      Error = "work must be an object";
      return false;
    }
    for (const auto &M : Work->members()) {
      if (!M.second.isNumber()) {
        Error = "work counter '" + M.first + "' must be a number";
        return false;
      }
      Out.Work.push_back({M.first, static_cast<uint64_t>(M.second.number())});
    }
    std::sort(Out.Work.begin(), Out.Work.end());
  }
  if (const json::Value *Checks = Doc.find("checks")) {
    if (!Checks->isArray()) {
      Error = "checks must be an array";
      return false;
    }
    for (const json::Value &C : Checks->array()) {
      CheckOutcome O;
      if (!C.getString("what", O.What)) {
        Error = "a check needs a 'what'";
        return false;
      }
      const json::Value *Pass = C.find("pass");
      if (!Pass || !Pass->isBool()) {
        Error = "check '" + O.What + "' needs a boolean 'pass'";
        return false;
      }
      O.Pass = Pass->boolean();
      Out.Checks.push_back(O);
    }
  }
  if (const json::Value *Metrics = Doc.find("metrics")) {
    if (!Metrics->isObject()) {
      Error = "metrics must be an object";
      return false;
    }
    for (const auto &M : Metrics->members()) {
      obs::SweepIndicatorStats St;
      double V = 0;
      if (!M.second.getNumber("n", V)) {
        Error = "metric '" + M.first + "' needs an 'n'";
        return false;
      }
      St.N = static_cast<uint64_t>(V);
      struct Field {
        const char *Name;
        double *Dst;
      } Fields[] = {{"mean", &St.Mean}, {"stddev", &St.Stddev},
                    {"ci95", &St.Ci95}, {"p50", &St.P50},
                    {"p90", &St.P90},   {"p99", &St.P99},
                    {"min", &St.Min},   {"max", &St.Max}};
      for (const Field &F : Fields)
        if (!M.second.getNumber(F.Name, *F.Dst)) {
          Error = "metric '" + M.first + "' needs a '" +
                  std::string(F.Name) + "'";
          return false;
        }
      Out.Metrics[M.first] = St;
    }
  }
  if (const json::Value *Profile = Doc.find("profile")) {
    if (!Profile->isArray()) {
      Error = "profile must be an array";
      return false;
    }
    Out.ProfilePhases = Profile->array().size();
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Comparison
//===----------------------------------------------------------------------===//

const char *cws::bench::benchVerdictName(BenchVerdict V) {
  switch (V) {
  case BenchVerdict::Identical:
    return "identical";
  case BenchVerdict::Compatible:
    return "compatible";
  case BenchVerdict::Regressed:
    return "REGRESSED";
  case BenchVerdict::Refused:
    return "refused";
  }
  CWS_UNREACHABLE("unknown bench verdict");
}

BenchCompareResult cws::bench::compareBench(const ParsedBench &Base,
                                            const ParsedBench &New,
                                            double QuantileShiftTol) {
  BenchCompareResult R;

  // Identity first: two runs of different configurations must not be
  // compared at all — the fail-loudly rule sweep pooling applies.
  auto Identity = [&R](const std::string &Field, const std::string &A,
                       const std::string &B) {
    if (A != B)
      R.Mismatched.push_back(Field + ": '" + A + "' vs '" + B + "'");
  };
  Identity("name", Base.Name, New.Name);
  Identity("config_hash", Base.ConfigHash, New.ConfigHash);
  Identity("scenario", Base.Scenario, New.Scenario);
  Identity("seed", std::to_string(Base.Seed), std::to_string(New.Seed));
  Identity("exec_seed", std::to_string(Base.ExecSeed),
           std::to_string(New.ExecSeed));
  Identity("invalidation", Base.Invalidation, New.Invalidation);
  if (!R.Mismatched.empty()) {
    R.Verdict = BenchVerdict::Refused;
    return R;
  }

  // Checks gate: the new run must pass everything, and must not drop
  // an invariant the baseline recorded.
  for (const CheckOutcome &C : New.Checks)
    if (!C.Pass)
      R.Gated.push_back("check failed: " + C.What);
  for (const CheckOutcome &C : Base.Checks) {
    bool Found = false;
    for (const CheckOutcome &N : New.Checks)
      Found = Found || N.What == C.What;
    if (!Found)
      R.Advisory.push_back("check no longer recorded: " + C.What);
  }

  // Work counters gate exactly: they are deterministic quantities of
  // the measured workload, the only signal a 1-core host can ratchet.
  size_t I = 0, J = 0;
  while (I < Base.Work.size() || J < New.Work.size()) {
    if (J >= New.Work.size() ||
        (I < Base.Work.size() && Base.Work[I].first < New.Work[J].first)) {
      R.Gated.push_back("work counter dropped: " + Base.Work[I].first + " (" +
                        std::to_string(Base.Work[I].second) + ")");
      ++I;
    } else if (I >= Base.Work.size() ||
               New.Work[J].first < Base.Work[I].first) {
      R.Gated.push_back("work counter appeared: " + New.Work[J].first + " (" +
                        std::to_string(New.Work[J].second) + ")");
      ++J;
    } else {
      if (Base.Work[I].second != New.Work[J].second)
        R.Gated.push_back("work counter " + Base.Work[I].first + ": " +
                          std::to_string(Base.Work[I].second) + " -> " +
                          std::to_string(New.Work[J].second));
      ++I;
      ++J;
    }
  }

  // Metrics are measured distributions; shifts are reported but never
  // gate — wall time on a shared CI host is weather, not signal.
  bool MetricsMoved = false;
  for (const auto &M : Base.Metrics) {
    auto It = New.Metrics.find(M.first);
    if (It == New.Metrics.end()) {
      R.Advisory.push_back("metric dropped: " + M.first);
      MetricsMoved = true;
      continue;
    }
    if (obs::statsIdentical(M.second, It->second))
      continue;
    MetricsMoved = true;
    std::string Why;
    if (!obs::statsCompatible(M.second, It->second, QuantileShiftTol, &Why))
      R.Advisory.push_back("metric " + M.first + ": " + Why);
  }
  for (const auto &M : New.Metrics)
    if (!Base.Metrics.count(M.first)) {
      R.Advisory.push_back("metric appeared: " + M.first);
      MetricsMoved = true;
    }

  if (!R.Gated.empty())
    R.Verdict = BenchVerdict::Regressed;
  else if (MetricsMoved || !R.Advisory.empty())
    R.Verdict = BenchVerdict::Compatible;
  else
    R.Verdict = BenchVerdict::Identical;
  return R;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string cws::bench::renderBenchRun(const BenchRun &Run) {
  std::ostringstream Out;
  Out << "bench " << Run.Info->Name << ": " << Run.Info->Description << "\n";
  Out << "  reps " << Run.Reps << " (+" << Run.Warmup << " warmup), seed "
      << Run.Prov.Seed << ", exec seed " << Run.ExecSeed << ", shards "
      << Run.Prov.Shards << ", invalidation " << Run.Invalidation
      << ", config " << Run.Prov.ConfigHash << "\n";
  if (!Run.Work.empty()) {
    Table W({"work counter", "value"});
    for (const auto &P : Run.Work)
      W.addRow({P.first, std::to_string(P.second)});
    W.print(Out);
  }
  if (!Run.Metrics.empty()) {
    Table M({"metric", "n", "mean", "ci95", "p50", "p99"});
    for (const auto &P : Run.Metrics)
      M.addRow({P.first, std::to_string(P.second.N),
                Table::num(P.second.Mean, 2), Table::num(P.second.Ci95, 2),
                Table::num(P.second.P50, 2), Table::num(P.second.P99, 2)});
    M.print(Out);
  }
  for (const CheckOutcome &C : Run.Checks)
    Out << "  check " << (C.Pass ? "ok  " : "FAIL") << "  " << C.What << "\n";
  Out << (Run.passed() ? "  PASS" : "  FAIL") << "\n";
  return Out.str();
}

std::string cws::bench::renderBenchCompare(const std::string &Name,
                                           const BenchCompareResult &R) {
  std::ostringstream Out;
  Out << "against baseline, " << Name << ": " << benchVerdictName(R.Verdict)
      << "\n";
  for (const std::string &F : R.Mismatched)
    Out << "  refused, identity mismatch: " << F << "\n";
  for (const std::string &F : R.Gated)
    Out << "  gated: " << F << "\n";
  for (const std::string &F : R.Advisory)
    Out << "  advisory: " << F << "\n";
  return Out.str();
}

//===----------------------------------------------------------------------===//
// CLI
//===----------------------------------------------------------------------===//

static bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

int cws::bench::benchMain(int Argc, char **Argv,
                          const std::string &DefaultFilter) {
  int64_t List = 0;
  int64_t Reps = 0;
  int64_t Warmup = -1;
  int64_t CompareOnly = 0;
  std::string Filter;
  std::string Out;
  std::string Against;
  Flags F;
  F.addInt("list", &List, "list registered benches and exit (0/1)");
  F.addString("filter", &Filter,
              "run only benches whose name contains this substring");
  F.addInt("reps", &Reps,
           "measured repetitions per bench (0 = bench default)");
  F.addInt("warmup", &Warmup,
           "discarded warmup repetitions (-1 = bench default)");
  F.addString("out", &Out,
              "directory to write one BENCH_<name>.json per bench into");
  F.addString("against", &Against,
              "baseline directory of BENCH_<name>.json files to ratchet "
              "against (work counters gate, wall time is advisory)");
  F.addInt("compare-only", &CompareOnly,
           "with --against and --out: compare the files already in "
           "--out instead of running the benches (0/1)");
  if (!F.parse(Argc, Argv))
    return 0;

  if (Filter.empty())
    Filter = DefaultFilter;
  std::vector<const BenchInfo *> Selected;
  for (const BenchInfo *B : BenchRegistry::global().all())
    if (Filter.empty() || std::string(B->Name).find(Filter) !=
                              std::string::npos)
      Selected.push_back(B);

  if (List) {
    Table T({"bench", "reps", "warmup", "description"});
    for (const BenchInfo *B : Selected)
      T.addRow({B->Name, std::to_string(B->DefaultReps),
                std::to_string(B->DefaultWarmup), B->Description});
    T.print(std::cout);
    return 0;
  }
  if (Selected.empty()) {
    std::fprintf(stderr, "cws-bench: no bench matches filter '%s'\n",
                 Filter.c_str());
    return 2;
  }
  if (CompareOnly && (Against.empty() || Out.empty())) {
    std::fprintf(stderr,
                 "cws-bench: --compare-only needs --against and --out\n");
    return 2;
  }

  std::string Cli = obs::cliStringOf(Argc, Argv);
  if (!Out.empty() && !CompareOnly) {
    std::error_code Ec;
    std::filesystem::create_directories(Out, Ec);
    if (Ec) {
      std::fprintf(stderr, "cws-bench: cannot create '%s': %s\n",
                   Out.c_str(), Ec.message().c_str());
      return 2;
    }
  }

  int Exit = 0;
  auto Escalate = [&Exit](int Code) { Exit = std::max(Exit, Code); };
  for (const BenchInfo *B : Selected) {
    ParsedBench NewDoc;
    std::string NewText;
    if (CompareOnly) {
      std::string Path = Out + "/BENCH_" + B->Name + ".json";
      if (!readFile(Path, NewText)) {
        std::fprintf(stderr, "cws-bench: cannot read '%s'\n", Path.c_str());
        return 2;
      }
    } else {
      BenchRun Run = runBench(*B, static_cast<int>(Reps),
                              static_cast<int>(Warmup), Cli);
      std::cout << renderBenchRun(Run) << "\n";
      if (!Run.passed())
        Escalate(1);
      NewText = Run.json();
      if (!Out.empty()) {
        std::string Path = Out + "/BENCH_" + std::string(B->Name) + ".json";
        std::ofstream OutFile(Path);
        OutFile << NewText;
        if (!OutFile) {
          std::fprintf(stderr, "cws-bench: cannot write '%s'\n",
                       Path.c_str());
          return 2;
        }
      }
    }

    if (Against.empty())
      continue;
    // Every run round-trips through the file format before comparison,
    // so what the ratchet gates is exactly what the artifact records.
    std::string Error;
    if (!parseBenchJson(NewText, NewDoc, Error)) {
      std::fprintf(stderr, "cws-bench: %s: %s\n", B->Name, Error.c_str());
      return 2;
    }
    std::string BasePath = Against + "/BENCH_" + B->Name + ".json";
    std::string BaseText;
    if (!readFile(BasePath, BaseText)) {
      std::cout << "against baseline, " << B->Name
                << ": no baseline at " << BasePath
                << " (run tools/update-baselines.sh)\n\n";
      continue;
    }
    ParsedBench BaseDoc;
    if (!parseBenchJson(BaseText, BaseDoc, Error)) {
      std::fprintf(stderr, "cws-bench: %s: %s\n", BasePath.c_str(),
                   Error.c_str());
      return 2;
    }
    BenchCompareResult R = compareBench(BaseDoc, NewDoc);
    std::cout << renderBenchCompare(B->Name, R) << "\n";
    if (R.Verdict == BenchVerdict::Refused)
      Escalate(2);
    else if (R.Verdict == BenchVerdict::Regressed)
      Escalate(1);
  }
  return Exit;
}
