// Tests for Table and feasible-capacity detection.
#include <gtest/gtest.h>

#include "stats/feasible_capacity.h"
#include "stats/table.h"

namespace halfback::stats {
namespace {

TEST(TableTest, AlignsColumns) {
  Table t{{"scheme", "fct"}};
  t.add_row({"tcp", "123.4"});
  t.add_row({"halfback", "56.7"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("scheme"), std::string::npos);
  EXPECT_NE(s.find("halfback"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
}

TEST(TableTest, CsvRendering) {
  Table t{{"scheme", "fct"}};
  t.add_row({"tcp", "123.4"});
  t.add_row({"half,back", "a \"quoted\" cell"});
  EXPECT_EQ(t.to_csv(),
            "scheme,fct\n"
            "tcp,123.4\n"
            "\"half,back\",\"a \"\"quoted\"\" cell\"\n");
}

TEST(TableTest, WriteCsvRoundTrips) {
  Table t{{"a", "b"}};
  t.add_row({"1", "2"});
  const std::string path = ::testing::TempDir() + "/halfback_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  EXPECT_STREQ(buf, "a,b\n1,2\n");
}

TEST(TableTest, WriteCsvFailsGracefully) {
  Table t{{"a"}};
  EXPECT_FALSE(t.write_csv("/nonexistent-dir/x.csv"));
}

TEST(FeasibleCapacityTest, DetectsCollapsePoint) {
  std::vector<SweepPoint> sweep{
      {0.1, 100}, {0.3, 110}, {0.5, 130}, {0.7, 900}, {0.9, 5000}};
  EXPECT_DOUBLE_EQ(feasible_capacity(sweep), 0.5);
}

TEST(FeasibleCapacityTest, NoCollapseGivesMaxUtilization) {
  std::vector<SweepPoint> sweep{{0.1, 100}, {0.5, 150}, {0.9, 250}};
  EXPECT_DOUBLE_EQ(feasible_capacity(sweep), 0.9);
}

TEST(FeasibleCapacityTest, CollapseIsMonotone) {
  // A dip back below the threshold after collapse must not resurrect
  // feasibility.
  std::vector<SweepPoint> sweep{{0.1, 100}, {0.3, 900}, {0.5, 120}};
  EXPECT_DOUBLE_EQ(feasible_capacity(sweep), 0.1);
}

TEST(FeasibleCapacityTest, AbsoluteCriterion) {
  std::vector<SweepPoint> sweep{{0.1, 400}, {0.3, 700}, {0.5, 1100}};
  CollapseCriterion c;
  c.fct_factor = 100.0;   // relative never triggers
  c.fct_absolute = 1000;  // absolute triggers at 0.5
  EXPECT_DOUBLE_EQ(feasible_capacity(sweep, c), 0.3);
}

TEST(FeasibleCapacityTest, UnsortedInputHandled) {
  std::vector<SweepPoint> sweep{{0.9, 5000}, {0.1, 100}, {0.5, 120}};
  EXPECT_DOUBLE_EQ(feasible_capacity(sweep), 0.5);
}

TEST(FeasibleCapacityTest, FirstPointCollapsedGivesZero) {
  std::vector<SweepPoint> sweep{{0.1, 2000}, {0.3, 3000}};
  CollapseCriterion c;
  c.fct_absolute = 1000;
  EXPECT_DOUBLE_EQ(feasible_capacity(sweep, c), 0.0);
}

TEST(FeasibleCapacityTest, EmptySweepThrows) {
  EXPECT_THROW(feasible_capacity({}), std::invalid_argument);
}

}  // namespace
}  // namespace halfback::stats
