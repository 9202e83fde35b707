//===-- tests/test_generator.cpp - Workload generator tests ---------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "job/Generator.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace cws;

TEST(JobGenerator, SameSeedSameJobs) {
  WorkloadConfig Config;
  JobGenerator A(Config, 99), B(Config, 99);
  for (int I = 0; I < 10; ++I) {
    Job Ja = A.next(I);
    Job Jb = B.next(I);
    ASSERT_EQ(Ja.taskCount(), Jb.taskCount());
    ASSERT_EQ(Ja.edgeCount(), Jb.edgeCount());
    EXPECT_EQ(Ja.deadline(), Jb.deadline());
    for (unsigned T = 0; T < Ja.taskCount(); ++T) {
      EXPECT_EQ(Ja.task(T).RefTicks, Jb.task(T).RefTicks);
      EXPECT_DOUBLE_EQ(Ja.task(T).Volume, Jb.task(T).Volume);
    }
  }
}

TEST(JobGenerator, SequentialIds) {
  JobGenerator Gen(WorkloadConfig{}, 1);
  EXPECT_EQ(Gen.next().id(), 0u);
  EXPECT_EQ(Gen.next().id(), 1u);
  EXPECT_EQ(Gen.next().id(), 2u);
}

TEST(JobGenerator, ReleaseIsApplied) {
  JobGenerator Gen(WorkloadConfig{}, 1);
  Job J = Gen.next(37);
  EXPECT_EQ(J.release(), 37);
  EXPECT_GT(J.deadline(), 37);
}

class GeneratorSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorSweep, JobsAreWellFormed) {
  WorkloadConfig Config;
  JobGenerator Gen(Config, GetParam());
  for (int I = 0; I < 50; ++I) {
    Job J = Gen.next(0);
    EXPECT_GE(J.taskCount(), Config.MinTasks);
    EXPECT_LE(J.taskCount(), Config.MaxTasks);
    EXPECT_TRUE(J.isAcyclic());
    for (const auto &T : J.tasks()) {
      EXPECT_GE(T.RefTicks, Config.RefTicksLo);
      EXPECT_LE(T.RefTicks, Config.RefTicksHi);
      EXPECT_DOUBLE_EQ(T.Volume,
                       Config.VolumePerRefTick *
                           static_cast<double>(T.RefTicks));
    }
    for (const auto &E : J.edges()) {
      EXPECT_GE(E.BaseTransfer, Config.TransferLo);
      EXPECT_LE(E.BaseTransfer, Config.TransferHi);
    }
    // Connectivity: every non-source task has a predecessor.
    size_t Sources = J.sources().size();
    for (const auto &T : J.tasks())
      if (!J.inEdges(T.Id).empty()) {
        EXPECT_FALSE(J.inEdges(T.Id).empty());
      }
    EXPECT_GE(Sources, 1u);
    // Deadline honours the slack formula.
    Tick Expected = static_cast<Tick>(std::ceil(
        Config.DeadlineSlack * static_cast<double>(J.criticalPathRefTicks())));
    EXPECT_EQ(J.deadline(), Expected);
  }
}

TEST_P(GeneratorSweep, LayerWidthIsBounded) {
  WorkloadConfig Config;
  Config.MaxWidth = 3;
  JobGenerator Gen(Config, GetParam());
  for (int I = 0; I < 30; ++I) {
    Job J = Gen.next(0);
    // No more than MaxWidth tasks can be pairwise independent within a
    // layer; a weaker but checkable property is that the number of
    // sources is at most MaxWidth.
    EXPECT_LE(J.sources().size(), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSweep,
                         ::testing::Values(1u, 2u, 3u, 2009u, 65537u));

TEST(JobGenerator, ParameterSpreadIsTwoToThree) {
  // The paper: task parameters differ by a factor of 2..3. The default
  // reference-tick range honours that.
  WorkloadConfig Config;
  EXPECT_GE(static_cast<double>(Config.RefTicksHi) /
                static_cast<double>(Config.RefTicksLo),
            2.0);
  EXPECT_LE(static_cast<double>(Config.RefTicksHi) /
                static_cast<double>(Config.RefTicksLo),
            3.0);
}
