//===-- tests/test_economy.cpp - VO economy tests -------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/Economy.h"

#include <gtest/gtest.h>

using namespace cws;

TEST(Economy, AddUserStartsFresh) {
  Economy E;
  unsigned U = E.addUser(100.0);
  EXPECT_EQ(E.userCount(), 1u);
  EXPECT_DOUBLE_EQ(E.quota(U), 100.0);
  EXPECT_DOUBLE_EQ(E.spent(U), 0.0);
  EXPECT_DOUBLE_EQ(E.remaining(U), 100.0);
}

TEST(Economy, ChargeWithinQuota) {
  Economy E;
  unsigned U = E.addUser(100.0);
  EXPECT_TRUE(E.charge(U, 60.0));
  EXPECT_DOUBLE_EQ(E.spent(U), 60.0);
  EXPECT_DOUBLE_EQ(E.remaining(U), 40.0);
}

TEST(Economy, ChargeBeyondQuotaFailsAtomically) {
  Economy E;
  unsigned U = E.addUser(100.0);
  EXPECT_TRUE(E.charge(U, 90.0));
  EXPECT_FALSE(E.charge(U, 20.0));
  EXPECT_DOUBLE_EQ(E.spent(U), 90.0);
}

TEST(Economy, CanAffordMatchesCharge) {
  Economy E;
  unsigned U = E.addUser(50.0);
  EXPECT_TRUE(E.canAfford(U, 50.0));
  EXPECT_FALSE(E.canAfford(U, 50.1));
}

TEST(Economy, RefundRestoresQuota) {
  Economy E;
  unsigned U = E.addUser(100.0);
  E.charge(U, 80.0);
  E.refund(U, 30.0);
  EXPECT_DOUBLE_EQ(E.spent(U), 50.0);
  EXPECT_TRUE(E.charge(U, 50.0));
}

TEST(Economy, RefundNeverGoesNegative) {
  Economy E;
  unsigned U = E.addUser(100.0);
  E.charge(U, 10.0);
  E.refund(U, 50.0);
  EXPECT_DOUBLE_EQ(E.spent(U), 0.0);
}

TEST(Economy, GrantRaisesQuota) {
  // The paper's dynamic priority change: a user raises the execution
  // cost they can pay for a resource.
  Economy E;
  unsigned U = E.addUser(10.0);
  E.charge(U, 10.0);
  EXPECT_FALSE(E.canAfford(U, 1.0));
  E.grant(U, 5.0);
  EXPECT_TRUE(E.charge(U, 5.0));
}

TEST(Economy, PriorityFollowsRemainingQuota) {
  Economy E;
  unsigned Rich = E.addUser(100.0);
  unsigned Poor = E.addUser(100.0);
  E.charge(Poor, 75.0);
  EXPECT_DOUBLE_EQ(E.priority(Rich), 1.0);
  EXPECT_DOUBLE_EQ(E.priority(Poor), 0.25);
}

TEST(Economy, PriorityZeroWhenEveryoneBroke) {
  Economy E;
  unsigned U = E.addUser(10.0);
  E.charge(U, 10.0);
  EXPECT_DOUBLE_EQ(E.priority(U), 0.0);
}

TEST(Economy, MultipleUsersAreIndependent) {
  Economy E;
  unsigned A = E.addUser(10.0);
  unsigned B = E.addUser(20.0);
  E.charge(A, 5.0);
  EXPECT_DOUBLE_EQ(E.spent(A), 5.0);
  EXPECT_DOUBLE_EQ(E.spent(B), 0.0);
}

TEST(Economy, GrantToUnknownUserDies) {
  Economy E;
  E.addUser(10.0);
  EXPECT_DEATH(E.grant(7, 1.0), "unknown user");
}
