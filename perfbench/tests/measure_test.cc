// Tests of the benchmark's own measurement code: percentile choice, the
// exactness check (a planted wrong answer must be caught) and span self
// time.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "perfbench/src/measure.h"
#include "perfbench/src/oracle.h"
#include "src/dataset/generators.h"

namespace perfbench {
namespace {

using odyssey::Neighbor;

TEST(TailPercentile, LeavesTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(199), 90.0);
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(999), 95.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(9999), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_TRUE(std::isnan(Percentile({}, 50.0)));
}

TEST(Summarize, ReportsQuartilesAndTheSupportedTail) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.median, 500.5);
  EXPECT_DOUBLE_EQ(s.q1, 250.75);
  EXPECT_DOUBLE_EQ(s.q3, 750.25);
  EXPECT_EQ(s.tail_percentile, 99.0);
  EXPECT_NEAR(s.tail, 990.01, 1e-9);
}

class AnswerCheck : public ::testing::Test {
 protected:
  AnswerCheck()
      : data_(odyssey::GenerateRandomWalk(500, 64, 3)),
        queries_(odyssey::GenerateRandomWalk(4, 64, 4)),
        oracle_(BruteForceKnn(data_, queries_, 3, Metric{}, 2)) {}

  bool Matches(size_t q, const std::vector<Neighbor>& got) const {
    return AnswerMatches(got, oracle_[q], data_.size(), [&](uint32_t id) {
      return ExactDistance(queries_.data(q), data_.data(id), data_.length(),
                           Metric{});
    });
  }

  odyssey::SeriesCollection data_;
  odyssey::SeriesCollection queries_;
  std::vector<std::vector<Neighbor>> oracle_;
};

TEST_F(AnswerCheck, OracleIsSortedAndComplete) {
  for (const auto& answer : oracle_) {
    ASSERT_EQ(answer.size(), 3u);
    EXPECT_LE(answer[0].squared_distance, answer[1].squared_distance);
    EXPECT_LE(answer[1].squared_distance, answer[2].squared_distance);
  }
}

TEST_F(AnswerCheck, AcceptsTheExactAnswer) {
  for (size_t q = 0; q < oracle_.size(); ++q) EXPECT_TRUE(Matches(q, oracle_[q]));
}

TEST_F(AnswerCheck, CatchesPlantedWrongAnswers) {
  // A missed neighbor: the k-th answer replaced by the (k+1)-th series.
  std::vector<Neighbor> missed = oracle_[0];
  const uint32_t other = missed.back().id == 0 ? 1 : 0;
  missed.back() = Neighbor{static_cast<float>(ExactDistance(
                               queries_.data(0), data_.data(other), 64,
                               Metric{})),
                           other};
  EXPECT_FALSE(Matches(0, missed));

  // A wrong id carrying the right distance.
  std::vector<Neighbor> wrong_id = oracle_[1];
  wrong_id[0].id = wrong_id[0].id == 7 ? 8 : 7;
  EXPECT_FALSE(Matches(1, wrong_id));

  // A right id reporting a wrong distance.
  std::vector<Neighbor> wrong_distance = oracle_[2];
  wrong_distance[0].squared_distance *= 1.01f;
  EXPECT_FALSE(Matches(2, wrong_distance));

  // Duplicates, short answers and out-of-range ids.
  std::vector<Neighbor> duplicate = oracle_[3];
  duplicate[1] = duplicate[0];
  EXPECT_FALSE(Matches(3, duplicate));
  std::vector<Neighbor> short_answer = oracle_[3];
  short_answer.pop_back();
  EXPECT_FALSE(Matches(3, short_answer));
  std::vector<Neighbor> out_of_range = oracle_[3];
  out_of_range[2].id = 500;
  EXPECT_FALSE(Matches(3, out_of_range));
}

TEST_F(AnswerCheck, AcceptsTiedNeighborsInEitherOrder) {
  // Two series identical to each other tie at every query.
  odyssey::SeriesCollection twins(64);
  twins.Append(data_.data(0));
  twins.Append(data_.data(0));
  twins.Append(data_.data(1));
  const auto oracle = BruteForceKnn(twins, queries_, 1, Metric{}, 1);
  const std::vector<Neighbor> swapped = {
      {oracle[0][0].squared_distance, oracle[0][0].id == 0 ? 1u : 0u}};
  EXPECT_TRUE(AnswerMatches(swapped, oracle[0], twins.size(), [&](uint32_t id) {
    return ExactDistance(queries_.data(0), twins.data(id), 64, Metric{});
  }));
}

TEST(SpanSelfTimes, SubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"call", 0.0, 100.0, -1},
      {"probe", 10.0, 30.0, 0},
      {"probe", 20.0, 40.0, 0},  // overlaps its sibling: counted once
      {"leaf", 12.0, 15.0, 1},
      {"call", 200.0, 250.0, -1},
  };
  const auto self = SpanSelfTimes(spans);
  EXPECT_DOUBLE_EQ(self.at("call"), (100.0 - 30.0) + 50.0);
  EXPECT_DOUBLE_EQ(self.at("probe"), (20.0 - 3.0) + 20.0);
  EXPECT_DOUBLE_EQ(self.at("leaf"), 3.0);
}

TEST(SpanRecorder, NestsSpansAndIsInertWhenDisabled) {
  SpanRecorder off(false);
  EXPECT_EQ(off.Begin("x"), -1);
  off.End();
  EXPECT_TRUE(off.spans().empty());

  SpanRecorder on(true);
  {
    ScopedSpan outer(&on, "outer");
    ScopedSpan inner(&on, "inner");
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[0].parent, -1);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_LE(on.spans()[0].start_us, on.spans()[1].start_us);
  EXPECT_GE(on.spans()[0].end_us, on.spans()[1].end_us);
  const std::string json = on.ChromeTraceJson();
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
