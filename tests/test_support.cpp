//===-- tests/test_support.cpp - Table and Flags unit tests ---------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

using namespace cws;

TEST(Table, AlignsColumns) {
  Table T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer-name", "22"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(Out.find("| longer-name | 22    |"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table T({"a", "b", "c"});
  T.addRow({"1"});
  std::ostringstream OS;
  T.print(OS);
  // Three cells rendered even though only one was provided.
  EXPECT_NE(OS.str().find("| 1 |   |   |"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::num(-1.5, 1), "-1.5");
}

TEST(Flags, ParsesEqualsForm) {
  int64_t Jobs = 0;
  double Rate = 0.0;
  std::string Name;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  F.addReal("rate", &Rate, "rate");
  F.addString("name", &Name, "name");
  const char *Argv[] = {"prog", "--jobs=120", "--rate=0.5", "--name=s1"};
  EXPECT_TRUE(F.parse(4, const_cast<char **>(Argv)));
  EXPECT_EQ(Jobs, 120);
  EXPECT_DOUBLE_EQ(Rate, 0.5);
  EXPECT_EQ(Name, "s1");
}

TEST(Flags, ParsesSpaceForm) {
  int64_t Jobs = 0;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  const char *Argv[] = {"prog", "--jobs", "77"};
  EXPECT_TRUE(F.parse(3, const_cast<char **>(Argv)));
  EXPECT_EQ(Jobs, 77);
}

TEST(Flags, HelpReturnsFalse) {
  Flags F;
  const char *Argv[] = {"prog", "--help"};
  EXPECT_FALSE(F.parse(2, const_cast<char **>(Argv)));
}

TEST(Flags, NoArgsKeepsDefaults) {
  int64_t Jobs = 42;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  const char *Argv[] = {"prog"};
  EXPECT_TRUE(F.parse(1, const_cast<char **>(Argv)));
  EXPECT_EQ(Jobs, 42);
}

/// Parses one `--name=value` argument against an int flag `jobs` and a
/// real flag `rate`; malformed values exit the process.
static void parseOne(const char *Arg) {
  int64_t Jobs = 0;
  double Rate = 0.0;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  F.addReal("rate", &Rate, "rate");
  const char *Argv[] = {"prog", Arg};
  F.parse(2, const_cast<char **>(Argv));
}

TEST(FlagsDeathTest, RejectsMalformedIntegers) {
  for (const char *Arg : {"--jobs=abc", "--jobs=12x", "--jobs=",
                          "--jobs=1.5", "--jobs=99999999999999999999"})
    EXPECT_EXIT(parseOne(Arg), ::testing::ExitedWithCode(2),
                "flag '--jobs' takes an integer")
        << Arg;
}

TEST(FlagsDeathTest, RejectsMalformedReals) {
  for (const char *Arg : {"--rate=abc", "--rate=0.5x", "--rate=",
                          "--rate=1e999"})
    EXPECT_EXIT(parseOne(Arg), ::testing::ExitedWithCode(2),
                "flag '--rate' takes a number")
        << Arg;
}

TEST(Flags, AcceptsWholeNumbers) {
  int64_t Jobs = 0;
  double Rate = 0.0;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  F.addReal("rate", &Rate, "rate");
  const char *Argv[] = {"prog", "--jobs=-3", "--rate", "2e-1"};
  EXPECT_TRUE(F.parse(4, const_cast<char **>(Argv)));
  EXPECT_EQ(Jobs, -3);
  EXPECT_DOUBLE_EQ(Rate, 0.2);
}

TEST(Flags, LaterFlagWins) {
  int64_t Jobs = 0;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  const char *Argv[] = {"prog", "--jobs=1", "--jobs=2"};
  EXPECT_TRUE(F.parse(3, const_cast<char **>(Argv)));
  EXPECT_EQ(Jobs, 2);
}
