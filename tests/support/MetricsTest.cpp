//===- tests/support/MetricsTest.cpp - Metrics registry tests -------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The metrics contract: snapshot merging is associative, commutative,
// and has the zero snapshot as identity (so the merged view cannot
// depend on shard order or worker scheduling); a deterministic serial
// workload yields deterministic event counters; and the degraded-kind
// helper maps onto the five per-kind counters.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "driver/Analyzer.h"
#include "support/Failure.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

using namespace pdt;

namespace {

/// A synthetic snapshot with distinctive values derived from \p Seed,
/// touching every field class (counters, gauges, histogram cells).
MetricsSnapshot synthetic(uint64_t Seed) {
  MetricsSnapshot S;
  for (unsigned I = 0; I != NumMetrics; ++I)
    S.Counters[I] = Seed * 31 + I * 7 + 1;
  for (unsigned I = 0; I != NumGauges; ++I)
    S.Gauges[I] = Seed * 13 + I * 5;
  for (unsigned I = 0; I != NumHistos; ++I) {
    auto &H = S.Histograms[I];
    H.Count = Seed + I + 2;
    H.SumNs = Seed * 1000 + I;
    H.MaxNs = Seed * 100 + I * 10;
    for (unsigned B = 0; B != HistoBuckets; ++B)
      H.Buckets[B] = (Seed + B * I) % 9;
  }
  return S;
}

/// merge() mutates in place; this returns the merged copy.
MetricsSnapshot merged(MetricsSnapshot A, const MetricsSnapshot &B) {
  A.merge(B);
  return A;
}

/// The deterministic portion of a snapshot: every counter that records
/// an event count rather than elapsed wall time. Timing fields
/// (GraphBuildNs, the latency histograms, and the latency-derived
/// histogram summaries) legitimately differ between identical runs.
std::vector<uint64_t> eventCounters(const MetricsSnapshot &S) {
  std::vector<uint64_t> Out;
  for (unsigned I = 0; I != NumMetrics; ++I)
    if (static_cast<Metric>(I) != Metric::GraphBuildNs)
      Out.push_back(S.Counters[I]);
  return Out;
}

MetricsSnapshot runSerialWorkload() {
  const char *Source = "do i = 1, 40\n"
                       "  do j = 1, 40\n"
                       "    a(i+1, j) = a(i, j+1)\n"
                       "    b(2*i) = b(2*i+1) + a(i, j)\n"
                       "  end do\n"
                       "end do\n";
  Metrics::enable("");
  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  AnalysisResult R = analyzeSource(Source, "metrics-workload", Opt);
  EXPECT_TRUE(R.Parsed);
  MetricsSnapshot S = Metrics::snapshot();
  Metrics::stop();
  return S;
}

} // namespace

TEST(Metrics, MergeIdentity) {
  MetricsSnapshot Zero;
  MetricsSnapshot A = synthetic(3);
  EXPECT_EQ(merged(A, Zero), A);
  EXPECT_EQ(merged(Zero, A), A);
}

TEST(Metrics, MergeCommutative) {
  MetricsSnapshot A = synthetic(1), B = synthetic(8);
  EXPECT_EQ(merged(A, B), merged(B, A));
}

TEST(Metrics, MergeAssociative) {
  MetricsSnapshot A = synthetic(2), B = synthetic(5), C = synthetic(11);
  EXPECT_EQ(merged(merged(A, B), C), merged(A, merged(B, C)));
}

TEST(Metrics, MergeSemanticsPerFieldClass) {
  MetricsSnapshot A = synthetic(1), B = synthetic(4);
  MetricsSnapshot M = merged(A, B);
  // Counters and histogram cells sum; gauges take the max.
  EXPECT_EQ(M.counter(Metric::PairsTested),
            A.counter(Metric::PairsTested) + B.counter(Metric::PairsTested));
  EXPECT_EQ(M.gauge(Gauge::PoolWorkers),
            std::max(A.gauge(Gauge::PoolWorkers), B.gauge(Gauge::PoolWorkers)));
  EXPECT_EQ(M.histogram(Histo::PairTestNs).Count,
            A.histogram(Histo::PairTestNs).Count +
                B.histogram(Histo::PairTestNs).Count);
  EXPECT_EQ(M.histogram(Histo::PairTestNs).MaxNs,
            std::max(A.histogram(Histo::PairTestNs).MaxNs,
                     B.histogram(Histo::PairTestNs).MaxNs));
}

TEST(Metrics, SerialWorkloadIsDeterministic) {
  MetricsSnapshot First = runSerialWorkload();
  MetricsSnapshot Second = runSerialWorkload();
  EXPECT_EQ(eventCounters(First), eventCounters(Second));
  EXPECT_GT(First.counter(Metric::GraphBuilds), 0u);
  EXPECT_GT(First.counter(Metric::PairsEnumerated), 0u);
  EXPECT_GT(First.counter(Metric::PairsTested), 0u);
  EXPECT_GT(First.counter(Metric::EdgesEmitted), 0u);
  EXPECT_GT(First.counter(Metric::AccessesLowered), 0u);
}

TEST(Metrics, CountDegradedMapsOntoPerKindCounters) {
  Metrics::enable("");
  const Metric Kinds[] = {Metric::DegradedOverflow, Metric::DegradedBudget,
                          Metric::DegradedSymbolic, Metric::DegradedInternal,
                          Metric::DegradedMalformed};
  for (unsigned Kind = 0; Kind != 5; ++Kind)
    for (unsigned N = 0; N != Kind + 1; ++N)
      Metrics::countDegraded(Kind);
  MetricsSnapshot S = Metrics::snapshot();
  Metrics::stop();
  for (unsigned Kind = 0; Kind != 5; ++Kind)
    EXPECT_EQ(S.counter(Kinds[Kind]), Kind + 1)
        << "kind " << failureKindName(static_cast<FailureKind>(Kind));
}

TEST(Metrics, DisabledByDefaultRecordsNothing) {
  Metrics::stop();
  Metrics::reset();
  Metrics::count(Metric::PairsTested, 42);
  Metrics::gaugeMax(Gauge::PoolWorkers, 7);
  Metrics::observe(Histo::PairTestNs, 1000);
  EXPECT_EQ(Metrics::snapshot(), MetricsSnapshot());
}

namespace {

/// A histogram with \p PerBucket[I] samples in bucket I (value range
/// [2^(I-1), 2^I)), Count kept consistent, MaxNs as given.
MetricsSnapshot::Histogram bucketed(
    std::initializer_list<std::pair<unsigned, uint64_t>> PerBucket,
    uint64_t MaxNs) {
  MetricsSnapshot::Histogram H;
  for (auto [Bucket, N] : PerBucket) {
    H.Buckets[Bucket] = N;
    H.Count += N;
  }
  H.MaxNs = MaxNs;
  return H;
}

} // namespace

TEST(MetricsQuantile, EmptyHistogramIsZero) {
  MetricsSnapshot::Histogram H;
  EXPECT_EQ(H.quantileNs(0.0), 0.0);
  EXPECT_EQ(H.quantileNs(0.5), 0.0);
  EXPECT_EQ(H.quantileNs(1.0), 0.0);
}

TEST(MetricsQuantile, SingleBucketInterpolatesUniformly) {
  // 4 samples in bucket 3, i.e. values in [4, 8). The 0-based rank
  // Q*(Count-1) sits at within-bucket fraction (rank + 0.5)/4.
  MetricsSnapshot::Histogram H = bucketed({{3, 4}}, /*MaxNs=*/7);
  EXPECT_DOUBLE_EQ(H.quantileNs(0.0), 4.5);  // rank 0   -> 4 + 0.125*4
  EXPECT_DOUBLE_EQ(H.quantileNs(0.5), 6.0);  // rank 1.5 -> 4 + 0.5*4
  EXPECT_DOUBLE_EQ(H.quantileNs(1.0), 7.0);  // rank 3 -> 7.5, clamped
}

TEST(MetricsQuantile, BucketZeroMeansValueZero) {
  MetricsSnapshot::Histogram H = bucketed({{0, 10}}, /*MaxNs=*/0);
  EXPECT_EQ(H.quantileNs(0.0), 0.0);
  EXPECT_EQ(H.quantileNs(0.99), 0.0);
  EXPECT_EQ(H.quantileNs(1.0), 0.0);
}

TEST(MetricsQuantile, WalksAcrossBuckets) {
  // One sample in [1,2), one in [2,4): the low quantile interpolates
  // inside the first bucket, the high one inside the second.
  MetricsSnapshot::Histogram H = bucketed({{1, 1}, {2, 1}}, /*MaxNs=*/3);
  EXPECT_DOUBLE_EQ(H.quantileNs(0.0), 1.5); // bucket 1 midpoint
  EXPECT_DOUBLE_EQ(H.quantileNs(1.0), 3.0); // bucket 2 midpoint
}

TEST(MetricsQuantile, MedianLandsInTheHeavyBucket) {
  // 1 sample in [2,4), 98 in [8,16), 1 in [32,64): every central
  // quantile must come from the dominant bucket.
  MetricsSnapshot::Histogram H =
      bucketed({{2, 1}, {4, 98}, {6, 1}}, /*MaxNs=*/40);
  EXPECT_DOUBLE_EQ(H.quantileNs(0.50), 12.0); // rank 49.5, mid-bucket
  // rank 98.01 is still among the 98 heavy samples; only the true
  // maximum escapes into the outlier bucket (and clamps to MaxNs).
  double P99 = H.quantileNs(0.99);
  EXPECT_GE(P99, 8.0);
  EXPECT_LT(P99, 16.0);
  EXPECT_DOUBLE_EQ(H.quantileNs(1.0), 40.0);
}

TEST(MetricsQuantile, MonotonicInQ) {
  MetricsSnapshot::Histogram H =
      bucketed({{1, 3}, {3, 7}, {5, 11}, {9, 2}}, /*MaxNs=*/500);
  double Prev = -1.0;
  for (double Q = 0.0; Q <= 1.0; Q += 0.05) {
    double V = H.quantileNs(Q);
    EXPECT_GE(V, Prev) << "at Q=" << Q;
    Prev = V;
  }
}

TEST(MetricsQuantile, ClampsToObservedMax) {
  // All mass in [16,32) but the largest observed sample was 17: the
  // interpolated upper quantiles must not exceed it.
  MetricsSnapshot::Histogram H = bucketed({{5, 8}}, /*MaxNs=*/17);
  EXPECT_EQ(H.quantileNs(1.0), 17.0);
  EXPECT_LE(H.quantileNs(0.99), 17.0);
}

TEST(MetricsQuantile, OutOfRangeQIsClamped) {
  MetricsSnapshot::Histogram H = bucketed({{3, 4}}, /*MaxNs=*/7);
  EXPECT_EQ(H.quantileNs(-1.0), H.quantileNs(0.0));
  EXPECT_EQ(H.quantileNs(2.0), H.quantileNs(1.0));
}

TEST(MetricsQuantile, AllMassInTheOverflowBucketClampsToMax) {
  // Every sample saturated into the clamped top bucket: quantiles
  // interpolate within the bucket's nominal range, never exceed the
  // observed maximum, and never overflow or NaN.
  MetricsSnapshot::Histogram H =
      bucketed({{HistoBuckets - 1, 12}}, /*MaxNs=*/5'000'000'000ull);
  for (double Q : {0.0, 0.5, 1.0}) {
    double V = H.quantileNs(Q);
    EXPECT_GE(V, static_cast<double>(1u << 30)) << "at Q=" << Q;
    EXPECT_LE(V, 5e9) << "at Q=" << Q;
  }
  double Prev = -1.0;
  for (double Q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    double V = H.quantileNs(Q);
    EXPECT_GE(V, Prev) << "at Q=" << Q;
    Prev = V;
  }
}

TEST(MetricsQuantile, JsonCarriesQuantileSummaries) {
  MetricsSnapshot S = synthetic(6);
  std::string Json = Metrics::toJson(S);
  EXPECT_NE(Json.find("\"p50_ns\""), std::string::npos);
  EXPECT_NE(Json.find("\"p95_ns\""), std::string::npos);
  EXPECT_NE(Json.find("\"p99_ns\""), std::string::npos);
}

TEST(Metrics, PrometheusNamesEveryRegisteredMetricSanitized) {
  MetricsSnapshot S = synthetic(6);
  std::string Text = Metrics::toPrometheus(S);
  auto Sanitized = [](std::string Name) {
    for (char &C : Name)
      if (!std::isalnum(static_cast<unsigned char>(C)))
        C = '_';
    return "pdt_" + Name;
  };
  for (unsigned I = 0; I != NumMetrics; ++I)
    EXPECT_NE(Text.find(Sanitized(metricName(static_cast<Metric>(I)))),
              std::string::npos)
        << metricName(static_cast<Metric>(I));
  for (unsigned I = 0; I != NumGauges; ++I)
    EXPECT_NE(Text.find(Sanitized(gaugeName(static_cast<Gauge>(I)))),
              std::string::npos);
  for (unsigned I = 0; I != NumHistos; ++I)
    EXPECT_NE(Text.find(Sanitized(histoName(static_cast<Histo>(I))) +
                        "_bucket{le=\"0\"}"),
              std::string::npos)
        << histoName(static_cast<Histo>(I));
}

TEST(Metrics, PrometheusCumulativeBucketsMatchTheLog2Cells) {
  // The log2 cells map exactly onto cumulative le bounds: the count
  // through bucket B is the count of values <= 2^B - 1, and the
  // clamped top bucket contributes only to +Inf.
  MetricsSnapshot S;
  auto &H = S.Histograms[static_cast<unsigned>(Histo::PairTestNs)];
  H = bucketed({{0, 2}, {3, 5}, {HistoBuckets - 1, 4}}, /*MaxNs=*/9'000);
  H.SumNs = 12345;
  std::string Text = Metrics::toPrometheus(S);
  const std::string N = "pdt_latency_pair_test_ns";
  EXPECT_NE(Text.find(N + "_bucket{le=\"0\"} 2"), std::string::npos) << Text;
  EXPECT_NE(Text.find(N + "_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(Text.find(N + "_bucket{le=\"3\"} 2"), std::string::npos);
  EXPECT_NE(Text.find(N + "_bucket{le=\"7\"} 7"), std::string::npos);
  // The last finite bound excludes the overflow bucket...
  EXPECT_NE(Text.find(N + "_bucket{le=\"1073741823\"} 7"),
            std::string::npos);
  // ...which surfaces only in +Inf, which must equal _count.
  EXPECT_NE(Text.find(N + "_bucket{le=\"+Inf\"} 11"), std::string::npos);
  EXPECT_NE(Text.find(N + "_count 11"), std::string::npos);
  EXPECT_NE(Text.find(N + "_sum 12345"), std::string::npos);
}

TEST(Metrics, JsonNamesEveryRegisteredMetric) {
  MetricsSnapshot S = synthetic(6);
  std::string Json = Metrics::toJson(S);
  for (unsigned I = 0; I != NumMetrics; ++I)
    EXPECT_NE(Json.find(metricName(static_cast<Metric>(I))), std::string::npos)
        << metricName(static_cast<Metric>(I));
  for (unsigned I = 0; I != NumGauges; ++I)
    EXPECT_NE(Json.find(gaugeName(static_cast<Gauge>(I))), std::string::npos);
  for (unsigned I = 0; I != NumHistos; ++I)
    EXPECT_NE(Json.find(histoName(static_cast<Histo>(I))), std::string::npos);
}
