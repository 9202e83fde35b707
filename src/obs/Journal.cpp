//===-- obs/Journal.cpp - Per-job decision journal ------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "support/Check.h"
#include "support/Json.h"

#include <cstdio>
#include <cstdlib>

using namespace cws;
using namespace cws::obs;

static const char *const KindNames[JournalKindCount] = {
    "arrival",        "admission",      "variant",        "collision",
    "env.change",     "invalidate",     "shift",          "reallocate",
    "repair.attempt", "repair.stage",   "dispatch",       "commit.attempt",
    "commit",         "reject",         "execution",      "complete",
    "note",
};

const char *cws::obs::journalKindName(JournalKind Kind) {
  auto I = static_cast<size_t>(Kind);
  CWS_CHECK(I < JournalKindCount, "unknown journal kind");
  return KindNames[I];
}

bool cws::obs::journalKindFromName(const std::string &Name,
                                   JournalKind &Out) {
  for (size_t I = 0; I < JournalKindCount; ++I)
    if (Name == KindNames[I]) {
      Out = static_cast<JournalKind>(I);
      return true;
    }
  return false;
}

Journal &Journal::global() {
  static Journal J;
  return J;
}

void Journal::enable(size_t Capacity) {
  CWS_CHECK(Capacity > 0, "journal needs a non-empty ring");
  std::lock_guard<std::mutex> Lock(Mu);
  Ring.assign(Capacity, JournalEvent{});
  Head = 0;
  LastEnvChangeId = 0;
  LastOf.clear();
  FlowOf.clear();
  Prov = RunProvenance{};
  On.store(true, std::memory_order_relaxed);
}

void Journal::disable() { On.store(false, std::memory_order_relaxed); }

void Journal::setProvenance(RunProvenance P) {
  std::lock_guard<std::mutex> Lock(Mu);
  Prov = std::move(P);
}

RunProvenance Journal::provenance() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Prov;
}

void Journal::reset() {
  disable();
  std::lock_guard<std::mutex> Lock(Mu);
  Ring.clear();
  Head = 0;
  LastEnvChangeId = 0;
  LastOf.clear();
  FlowOf.clear();
  Prov = RunProvenance{};
}

namespace {
/// This thread's capture sink: while set (and attached to the journal
/// being appended to), events are deferred into the buffer instead of
/// the ring. One slot suffices — capture scopes nest by saving the
/// previous value.
struct CaptureSink {
  Journal *J = nullptr;
  JournalBuffer *Buf = nullptr;
};
thread_local CaptureSink ActiveCapture;
} // namespace

JournalCaptureScope::JournalCaptureScope(Journal &J, JournalBuffer *Buf)
    : Prev(ActiveCapture.Buf) {
  ActiveCapture.J = &J;
  ActiveCapture.Buf = Buf;
}

JournalCaptureScope::~JournalCaptureScope() { ActiveCapture.Buf = Prev; }

uint64_t Journal::append(JournalKind Kind, int64_t JobId, int64_t At,
                         std::initializer_list<JournalArg> Args,
                         const char *Detail, int FlowId, uint64_t Trigger) {
  if (!enabled())
    return 0;
  JournalBuffer::Pending P;
  P.Kind = Kind;
  P.JobId = JobId;
  P.At = At;
  P.Detail = Detail;
  P.FlowId = FlowId;
  P.Trigger = Trigger;
  for (const JournalArg &A : Args) {
    if (P.ArgCount >= JournalEvent::MaxArgs)
      break;
    P.Args[P.ArgCount++] = A;
  }
  if (ActiveCapture.Buf && ActiveCapture.J == this) {
    ActiveCapture.Buf->Events.push_back(P);
    return 0; // Ids are assigned at replay.
  }
  return appendEvent(P);
}

uint64_t Journal::appendEvent(const JournalBuffer::Pending &P) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Ring.empty())
    return 0; // reset() raced the enabled check.
  JournalEvent &E = Ring[Head % Ring.size()];
  E = JournalEvent{};
  E.Id = Head + 1;
  E.Kind = P.Kind;
  E.JobId = P.JobId;
  E.At = P.At;
  E.Detail = P.Detail;
  E.ArgCount = P.ArgCount;
  for (uint8_t I = 0; I < P.ArgCount; ++I)
    E.Args[I] = P.Args[I];
  int FlowId = P.FlowId;
  if (P.JobId >= 0) {
    auto Last = LastOf.find(P.JobId);
    E.Cause = Last == LastOf.end() ? 0 : Last->second;
    LastOf[P.JobId] = E.Id;
    if (FlowId >= 0)
      FlowOf[P.JobId] = FlowId;
    else if (auto F = FlowOf.find(P.JobId); F != FlowOf.end())
      FlowId = F->second;
  }
  E.FlowId = FlowId;
  // Invalidations and reallocations are consequences of environment
  // dynamics: attribute them to the latest change unless the caller
  // knows a more precise trigger.
  uint64_t Trigger = P.Trigger;
  if (Trigger == 0 && (P.Kind == JournalKind::Invalidate ||
                       P.Kind == JournalKind::Reallocate))
    Trigger = LastEnvChangeId;
  E.Trigger = Trigger;
  if (P.Kind == JournalKind::EnvChange)
    LastEnvChangeId = E.Id;
  ++Head;
  return E.Id;
}

void Journal::appendBuffered(JournalBuffer &Buf) {
  if (enabled())
    for (const JournalBuffer::Pending &P : Buf.Events)
      appendEvent(P);
  Buf.clear();
}

uint64_t Journal::recorded() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Head;
}

uint64_t Journal::dropped() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Head > Ring.size() ? Head - Ring.size() : 0;
}

uint64_t Journal::lastEnvChange() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return LastEnvChangeId;
}

std::vector<JournalEvent> Journal::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<JournalEvent> Out;
  if (Ring.empty())
    return Out;
  uint64_t Size = Head < Ring.size() ? Head : Ring.size();
  Out.reserve(Size);
  uint64_t Start = Head < Ring.size() ? 0 : Head;
  for (uint64_t I = 0; I < Size; ++I)
    Out.push_back(Ring[(Start + I) % Ring.size()]);
  return Out;
}

static void appendInt(std::string &Out, int64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  Out += Buf;
}

std::string Journal::jsonl() const {
  uint64_t Recorded, Dropped;
  RunProvenance P;
  std::vector<JournalEvent> Events = snapshot();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Recorded = Head;
    Dropped = Head > Ring.size() ? Head - Ring.size() : 0;
    P = Prov;
  }
  std::string Out = "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":";
  appendInt(Out, static_cast<int64_t>(Recorded));
  Out += ",\"dropped\":";
  appendInt(Out, static_cast<int64_t>(Dropped));
  if (P.Stamped) {
    Out += ",\"seed\":";
    appendInt(Out, static_cast<int64_t>(P.Seed));
    Out += ",\"config_hash\":";
    Out += '"' + json::escape(P.ConfigHash) + '"';
    Out += ",\"scenario\":";
    Out += '"' + json::escape(P.ScenarioId) + '"';
    if (P.Shards > 0) {
      Out += ",\"shards\":";
      appendInt(Out, P.Shards);
    }
    Out += ",\"cli\":";
    Out += '"' + json::escape(P.Cli) + '"';
  }
  Out += "}\n";
  for (const JournalEvent &E : Events) {
    Out += "{\"id\":";
    appendInt(Out, static_cast<int64_t>(E.Id));
    Out += ",\"kind\":";
    Out += '"' + json::escape(journalKindName(E.Kind)) + '"';
    Out += ",\"tick\":";
    appendInt(Out, E.At);
    if (E.JobId >= 0) {
      Out += ",\"job\":";
      appendInt(Out, E.JobId);
    }
    if (E.FlowId >= 0) {
      Out += ",\"flow\":";
      appendInt(Out, E.FlowId);
    }
    if (E.Cause != 0) {
      Out += ",\"cause\":";
      appendInt(Out, static_cast<int64_t>(E.Cause));
    }
    if (E.Trigger != 0) {
      Out += ",\"trigger\":";
      appendInt(Out, static_cast<int64_t>(E.Trigger));
    }
    if (E.Detail) {
      Out += ",\"detail\":";
      Out += '"' + json::escape(E.Detail) + '"';
    }
    if (E.ArgCount > 0) {
      Out += ",\"args\":{";
      for (uint8_t I = 0; I < E.ArgCount; ++I) {
        if (I)
          Out += ",";
        Out += '"' + json::escape(E.Args[I].Key ? E.Args[I].Key : "") + '"';
        Out += ":";
        appendInt(Out, E.Args[I].Value);
      }
      Out += "}";
    }
    Out += "}\n";
  }
  return Out;
}

bool Journal::writeJsonl(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Text = jsonl();
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  bool Ok = Written == Text.size();
  Ok = std::fclose(F) == 0 && Ok;
  return Ok;
}

void cws::obs::publishJournalStats(Registry &R) {
  const Journal &J = Journal::global();
  R.gauge("cws_journal_recorded_total",
          "journal events appended since enable()")
      .set(static_cast<int64_t>(J.recorded()));
  R.gauge("cws_journal_dropped_total",
          "journal events lost to ring wraparound")
      .set(static_cast<int64_t>(J.dropped()));
}

//===----------------------------------------------------------------------===//
// JSONL parsing
//===----------------------------------------------------------------------===//

const int64_t *ParsedJournalEvent::arg(const std::string &Key) const {
  for (const auto &A : Args)
    if (A.first == Key)
      return &A.second;
  return nullptr;
}

const ParsedJournalEvent *ParsedJournal::byId(uint64_t Id) const {
  size_t Lo = 0, Hi = Events.size();
  while (Lo < Hi) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    if (Events[Mid].Id < Id)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  if (Lo < Events.size() && Events[Lo].Id == Id)
    return &Events[Lo];
  return nullptr;
}

namespace {
/// Minimal parser for one flat journal line: an object of string keys
/// mapping to integers, strings, or one level of nested integer object
/// (`args`). Strict enough that `cws-explain --summary` can vouch for
/// the schema.
class LineParser {
public:
  explicit LineParser(const std::string &S) : S(S) {}

  bool fail(const std::string &Why) {
    Error = Why;
    return false;
  }
  const std::string &error() const { return Error; }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t'))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool atEnd() {
    skipWs();
    return Pos == S.size();
  }

  bool parseString(std::string &Out) {
    skipWs();
    if (Pos >= S.size() || S[Pos] != '"')
      return fail("expected string");
    ++Pos;
    Out.clear();
    while (Pos < S.size() && S[Pos] != '"') {
      char C = S[Pos++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= S.size())
        return fail("truncated escape");
      char E = S[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > S.size())
          return fail("truncated \\u escape");
        char Buf[5] = {S[Pos], S[Pos + 1], S[Pos + 2], S[Pos + 3], 0};
        Pos += 4;
        Out += static_cast<char>(std::strtol(Buf, nullptr, 16));
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    if (Pos >= S.size())
      return fail("unterminated string");
    ++Pos;
    return true;
  }

  bool parseInt(int64_t &Out) {
    skipWs();
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    size_t DigitStart = Pos;
    while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9')
      ++Pos;
    if (Pos == DigitStart)
      return fail("expected integer");
    Out = std::strtoll(S.substr(Start, Pos - Start).c_str(), nullptr, 10);
    return true;
  }

private:
  const std::string &S;
  size_t Pos = 0;
  std::string Error;
};

bool parseLine(const std::string &Line, ParsedJournalEvent &E,
               std::string &MetaKind, uint64_t &Recorded, uint64_t &Dropped,
               RunProvenance &Prov, bool &IsMeta, std::string &Error) {
  LineParser P(Line);
  IsMeta = false;
  if (!P.consume('{')) {
    Error = "expected '{'";
    return false;
  }
  bool First = true;
  int64_t Schema = -1;
  int64_t MetaRecorded = -1, MetaDropped = -1;
  RunProvenance MetaProv;
  bool SawSeed = false, SawProvString = false;
  bool SawId = false, SawKind = false, SawTick = false;
  while (!P.consume('}')) {
    if (!First && !P.consume(',')) {
      Error = "expected ',' or '}'";
      return false;
    }
    First = false;
    std::string Key;
    if (!P.parseString(Key) || !P.consume(':')) {
      Error = P.error().empty() ? "expected ':'" : P.error();
      return false;
    }
    if (Key == "kind") {
      std::string V;
      if (!P.parseString(V)) {
        Error = P.error();
        return false;
      }
      E.Kind = V;
      MetaKind = V;
      SawKind = true;
    } else if (Key == "detail") {
      if (!P.parseString(E.Detail)) {
        Error = P.error();
        return false;
      }
    } else if (Key == "config_hash" || Key == "scenario" || Key == "cli") {
      std::string V;
      if (!P.parseString(V)) {
        Error = P.error();
        return false;
      }
      if (Key == "config_hash")
        MetaProv.ConfigHash = std::move(V);
      else if (Key == "scenario")
        MetaProv.ScenarioId = std::move(V);
      else
        MetaProv.Cli = std::move(V);
      SawProvString = true;
    } else if (Key == "args") {
      if (!P.consume('{')) {
        Error = "expected args object";
        return false;
      }
      bool FirstArg = true;
      while (!P.consume('}')) {
        if (!FirstArg && !P.consume(',')) {
          Error = "expected ',' or '}' in args";
          return false;
        }
        FirstArg = false;
        std::string AKey;
        int64_t AVal;
        if (!P.parseString(AKey) || !P.consume(':') || !P.parseInt(AVal)) {
          Error = P.error().empty() ? "malformed args entry" : P.error();
          return false;
        }
        E.Args.emplace_back(std::move(AKey), AVal);
      }
    } else {
      int64_t V;
      if (!P.parseInt(V)) {
        Error = P.error();
        return false;
      }
      if (Key == "id") {
        E.Id = static_cast<uint64_t>(V);
        SawId = true;
      } else if (Key == "cause") {
        E.Cause = static_cast<uint64_t>(V);
      } else if (Key == "trigger") {
        E.Trigger = static_cast<uint64_t>(V);
      } else if (Key == "job") {
        E.JobId = V;
      } else if (Key == "flow") {
        E.FlowId = V;
      } else if (Key == "tick") {
        E.At = V;
        SawTick = true;
      } else if (Key == "schema") {
        Schema = V;
      } else if (Key == "recorded") {
        MetaRecorded = V;
      } else if (Key == "dropped") {
        MetaDropped = V;
      } else if (Key == "seed") {
        MetaProv.Seed = static_cast<uint64_t>(V);
        SawSeed = true;
      } else if (Key == "shards") {
        MetaProv.Shards = V;
      } else {
        Error = "unknown field '" + Key + "'";
        return false;
      }
    }
  }
  if (!P.atEnd()) {
    Error = "trailing garbage";
    return false;
  }
  if (MetaKind == "journal.meta") {
    IsMeta = true;
    if (Schema != 1) {
      Error = "unsupported journal schema";
      return false;
    }
    if (MetaRecorded < 0 || MetaDropped < 0) {
      Error = "meta line missing recorded/dropped";
      return false;
    }
    Recorded = static_cast<uint64_t>(MetaRecorded);
    Dropped = static_cast<uint64_t>(MetaDropped);
    // A stamped header carries the seed; the string fields may be
    // empty but must accompany it (a partial stamp is malformed).
    if (SawSeed) {
      MetaProv.Stamped = true;
      Prov = std::move(MetaProv);
    } else if (SawProvString) {
      Error = "provenance stamp missing seed";
      return false;
    }
    return true;
  }
  if (!SawId || !SawKind || !SawTick) {
    Error = "event missing id/kind/tick";
    return false;
  }
  return true;
}
} // namespace

bool cws::obs::parseJournalJsonl(const std::string &Text, ParsedJournal &Out,
                                 std::string &Error) {
  Out = ParsedJournal{};
  size_t Pos = 0;
  size_t LineNo = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    ParsedJournalEvent E;
    std::string MetaKind;
    bool IsMeta = false;
    std::string Why;
    if (!parseLine(Line, E, MetaKind, Out.Recorded, Out.Dropped, Out.Prov,
                   IsMeta, Why)) {
      Error = "line " + std::to_string(LineNo) + ": " + Why;
      return false;
    }
    if (!IsMeta)
      Out.Events.push_back(std::move(E));
  }
  return true;
}
