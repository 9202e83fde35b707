//===-- support/Flags.cpp - Tiny CLI flag parser --------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"
#include "support/Check.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace cws;

void Flags::addInt(const std::string &Name, int64_t *Storage,
                   const std::string &Help) {
  Entries.push_back({Name, Kind::Int, Storage, Help});
}

void Flags::addReal(const std::string &Name, double *Storage,
                    const std::string &Help) {
  Entries.push_back({Name, Kind::Real, Storage, Help});
}

void Flags::addString(const std::string &Name, std::string *Storage,
                      const std::string &Help) {
  Entries.push_back({Name, Kind::String, Storage, Help});
}

void Flags::addBool(const std::string &Name, bool *Storage,
                    const std::string &Help) {
  Entries.push_back({Name, Kind::Bool, Storage, Help});
}

const Flags::Entry *Flags::find(const std::string &Name) const {
  for (const auto &E : Entries)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

/// Converts all of \p Value with \p Convert (a strtoll/strtod shape)
/// into \p Out. Empty, non-numeric, trailing-garbage ("12x") and
/// out-of-range values fail.
template <typename T, typename ConvertFn>
static bool parseWhole(const std::string &Value, T &Out, ConvertFn Convert) {
  const char *Begin = Value.c_str();
  char *End = nullptr;
  errno = 0;
  Out = Convert(Begin, &End);
  return End != Begin && *End == '\0' && errno != ERANGE;
}

[[noreturn]] static void badNumber(const std::string &Name, const char *What,
                                   const std::string &Value) {
  std::fprintf(stderr, "flag '--%s' takes %s, got '%s'\n", Name.c_str(),
               What, Value.c_str());
  std::exit(2);
}

bool Flags::parse(int Argc, char **Argv) const {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::printf("flags:\n");
      for (const auto &E : Entries)
        std::printf("  --%-20s %s\n", E.Name.c_str(), E.Help.c_str());
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n",
                   Arg.c_str());
      std::exit(2);
    }
    std::string Body = Arg.substr(2);
    std::string Name = Body;
    std::string Value;
    bool HaveValue = false;
    if (size_t Eq = Body.find('='); Eq != std::string::npos) {
      Name = Body.substr(0, Eq);
      Value = Body.substr(Eq + 1);
      HaveValue = true;
    }
    const Entry *E = find(Name);
    if (!E) {
      std::fprintf(stderr, "unknown flag '--%s' (try --help)\n", Name.c_str());
      std::exit(2);
    }
    if (!HaveValue) {
      if (E->FlagKind == Kind::Bool) {
        *static_cast<bool *>(E->Storage) = true;
        continue;
      }
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "flag '--%s' needs a value\n", Name.c_str());
        std::exit(2);
      }
      Value = Argv[++I];
    }
    switch (E->FlagKind) {
    case Kind::Bool: {
      bool On = Value == "1" || Value == "true";
      if (!On && Value != "0" && Value != "false") {
        std::fprintf(stderr, "flag '--%s' takes 0|1|true|false, got '%s'\n",
                     Name.c_str(), Value.c_str());
        std::exit(2);
      }
      *static_cast<bool *>(E->Storage) = On;
      break;
    }
    case Kind::Int:
      if (!parseWhole(Value, *static_cast<int64_t *>(E->Storage),
                      [](const char *S, char **End) {
                        return std::strtoll(S, End, 10);
                      }))
        badNumber(Name, "an integer", Value);
      break;
    case Kind::Real:
      if (!parseWhole(Value, *static_cast<double *>(E->Storage),
                      [](const char *S, char **End) {
                        return std::strtod(S, End);
                      }))
        badNumber(Name, "a number", Value);
      break;
    case Kind::String:
      *static_cast<std::string *>(E->Storage) = Value;
      break;
    }
  }
  return true;
}
