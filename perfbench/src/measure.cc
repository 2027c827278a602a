#include "perfbench/src/measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double TailPercentile(size_t count) {
  // Candidates in tenths of a percent, so the "ten beyond" test is exact
  // integer arithmetic: count * (1000 - p10) / 1000 >= 10.
  for (const int p10 : {999, 990, 950, 900, 500}) {
    if (count * static_cast<size_t>(1000 - p10) >= 10 * 1000) {
      return p10 / 10.0;
    }
  }
  return 0.0;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  s.median = Percentile(samples, 50.0);
  s.q1 = Percentile(samples, 25.0);
  s.q3 = Percentile(samples, 75.0);
  s.tail_percentile = TailPercentile(samples.size());
  if (s.tail_percentile > 0.0) s.tail = Percentile(samples, s.tail_percentile);
  return s;
}

bool AnswerMatches(const std::vector<odyssey::Neighbor>& got,
                   const std::vector<odyssey::Neighbor>& want,
                   size_t num_series, const DistanceFn& distance) {
  if (got.size() != want.size()) return false;
  auto close = [](double a, double b) {
    return std::fabs(a - b) <= kDistanceTolerance * std::max(1.0, std::fabs(b));
  };
  std::set<uint32_t> ids;
  for (size_t r = 0; r < got.size(); ++r) {
    const odyssey::Neighbor& n = got[r];
    if (n.id >= num_series || !ids.insert(n.id).second) return false;
    if (!close(n.squared_distance, want[r].squared_distance)) return false;
    if (n.id != want[r].id && !close(distance(n.id), n.squared_distance)) {
      return false;
    }
  }
  return true;
}

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled) {
  origin_us_ = NowUs();
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_us = NowUs() - origin_us_;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End() {
  if (!enabled_ || open_.empty()) return;
  spans_[open_.back()].end_us = NowUs() - origin_us_;
  open_.pop_back();
}

std::map<std::string, double> SpanRecorder::SelfTimes() const {
  return SpanSelfTimes(spans_);
}

std::map<std::string, double> SpanSelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_us, s.end_us});
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the parent's.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.start_us;
    for (const auto& [begin, end] : kids) {
      const double lo = std::max(begin, cursor);
      const double hi = std::min(end, s.end_us);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[s.name] += (s.end_us - s.start_us) - covered;
  }
  return self;
}

std::string SpanRecorder::ChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  char buf[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"id\":%zu,\"parent\":%d}}", i,
                  s.parent);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
