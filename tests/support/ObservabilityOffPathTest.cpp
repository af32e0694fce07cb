//===- tests/support/ObservabilityOffPathTest.cpp - Off-path cost ---------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The zero-cost contract for observability when it is not wanted:
// disarmed (the default production state), spans and metric
// recordings must observably do nothing.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

using namespace pdt;

TEST(ObservabilityOffPath, DisarmedSpanRecordsNothing) {
  Trace::stop();
  Trace::clear();
  {
    Span S("off-path-span", "test");
    Span Nested("off-path-nested", "test");
  }
  EXPECT_TRUE(Trace::snapshot().empty());
  EXPECT_FALSE(Trace::enabled());
}

TEST(ObservabilityOffPath, DisarmedMetricsRecordNothing) {
  Metrics::stop();
  Metrics::reset();
  Metrics::count(Metric::PairsTested);
  Metrics::gaugeMax(Gauge::PoolQueueDepth, 99);
  Metrics::observe(Histo::DeltaNs, 12345);
  Metrics::countDegraded(0);
  { LatencyTimer T(Histo::PairTestNs); }
  EXPECT_EQ(Metrics::snapshot(), MetricsSnapshot());
  EXPECT_FALSE(Metrics::enabled());
}
