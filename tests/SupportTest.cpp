//===- tests/SupportTest.cpp - Support library unit tests -----------------===//

#include "support/DotWriter.h"
#include "support/Rng.h"
#include "support/SlotBitset.h"
#include "support/Stats.h"
#include "support/StringInterner.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace velo {
namespace {

// --- Rng ---

TEST(RngTest, DeterministicPerSeed) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  Rng A2(42);
  for (int I = 0; I < 100 && !Differs; ++I)
    Differs = A2.next() != C.next();
  EXPECT_TRUE(Differs);
}

TEST(RngTest, BelowStaysInRangeAndHitsAllValues) {
  Rng R(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 2000; ++I) {
    uint64_t V = R.below(10);
    ASSERT_LT(V, 10u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 10u);
}

TEST(RngTest, RangeIsInclusive) {
  Rng R(9);
  std::set<int64_t> Seen;
  for (int I = 0; I < 500; ++I) {
    int64_t V = R.range(-2, 2);
    ASSERT_GE(V, -2);
    ASSERT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, ChanceIsRoughlyCalibrated) {
  Rng R(11);
  int Hits = 0;
  const int N = 10000;
  for (int I = 0; I < N; ++I)
    Hits += R.chance(1, 4);
  EXPECT_NEAR(Hits / static_cast<double>(N), 0.25, 0.03);
}

TEST(RngTest, UnitIsInHalfOpenInterval) {
  Rng R(13);
  for (int I = 0; I < 1000; ++I) {
    double U = R.unit();
    ASSERT_GE(U, 0.0);
    ASSERT_LT(U, 1.0);
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng R(17);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
}

// --- SlotBitset ---

TEST(SlotBitsetTest, InsertEraseContains) {
  SlotBitset S;
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(5));
  EXPECT_TRUE(S.insert(1));
  EXPECT_TRUE(S.insert(9));
  EXPECT_FALSE(S.insert(5)) << "duplicate";
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.contains(1));
  EXPECT_FALSE(S.contains(2));
  EXPECT_TRUE(S.erase(5));
  EXPECT_FALSE(S.erase(5));
  EXPECT_EQ(S.size(), 2u);
}

TEST(SlotBitsetTest, IterationIsSorted) {
  SlotBitset S;
  for (uint32_t V : {9u, 3u, 7u, 1u, 5u})
    S.insert(V);
  std::vector<uint32_t> Out(S.begin(), S.end());
  EXPECT_EQ(Out, (std::vector<uint32_t>{1, 3, 5, 7, 9}));
}

TEST(SlotBitsetTest, UnionWithReportsGrowth) {
  SlotBitset A, B;
  A.insert(1);
  A.insert(3);
  B.insert(3);
  B.insert(5);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(A.size(), 3u);
  EXPECT_FALSE(A.unionWith(B)) << "no growth the second time";
  SlotBitset Empty;
  EXPECT_FALSE(A.unionWith(Empty));
}

// --- StringInterner ---

TEST(StringInternerTest, StableDenseIds) {
  StringInterner I;
  uint32_t A = I.intern("alpha");
  uint32_t B = I.intern("beta");
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(I.intern("alpha"), A);
  EXPECT_EQ(I.name(A), "alpha");
  EXPECT_EQ(I.size(), 2u);

  uint32_t Found = 99;
  EXPECT_TRUE(I.lookup("beta", Found));
  EXPECT_EQ(Found, B);
  EXPECT_FALSE(I.lookup("gamma", Found));
  EXPECT_EQ(I.nameOr(7, "var"), "var#7");
}

TEST(StringInternerTest, ManyNamesSurviveRehashing) {
  StringInterner I;
  for (int K = 0; K < 1000; ++K)
    EXPECT_EQ(I.intern("name" + std::to_string(K)),
              static_cast<uint32_t>(K));
  for (int K = 0; K < 1000; ++K)
    EXPECT_EQ(I.name(static_cast<uint32_t>(K)), "name" + std::to_string(K));
}

// --- Stats ---

TEST(StatsTest, SummaryTracksMinMaxMean) {
  Summary S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  for (double X : {2.0, 4.0, 6.0})
    S.add(X);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 4.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 6.0);
}

TEST(StatsTest, HighWaterTracksPeak) {
  HighWater H;
  H.inc(3);
  H.inc(2);
  H.dec(4);
  H.inc(1);
  EXPECT_EQ(H.current(), 2u);
  EXPECT_EQ(H.peak(), 5u);
}

// --- TablePrinter ---

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T({"A", "LongHeader"});
  T.startRow();
  T.cell(std::string("xxx"));
  T.cell(static_cast<int64_t>(7));
  std::string Out = T.str();
  EXPECT_NE(Out.find("A    LongHeader"), std::string::npos);
  EXPECT_NE(Out.find("xxx  7"), std::string::npos);
}

TEST(TablePrinterTest, FixedAndCommas) {
  EXPECT_EQ(TablePrinter::fixed(71.66, 1), "71.7");
  EXPECT_EQ(TablePrinter::fixed(2.0, 2), "2.00");
  EXPECT_EQ(TablePrinter::withCommas(0), "0");
  EXPECT_EQ(TablePrinter::withCommas(999), "999");
  EXPECT_EQ(TablePrinter::withCommas(1000), "1,000");
  EXPECT_EQ(TablePrinter::withCommas(1234567), "1,234,567");
}

TEST(TablePrinterTest, CsvQuotesOnlyWhenNeeded) {
  TablePrinter T({"name", "value"});
  T.startRow();
  T.cell(std::string("plain"));
  T.cell(std::string("a,b \"quoted\""));
  std::string Csv = T.csv();
  EXPECT_NE(Csv.find("plain,\"a,b \"\"quoted\"\"\""), std::string::npos);
}

// --- DotWriter ---

TEST(DotWriterTest, EmitsWellFormedDigraph) {
  DotWriter D("g");
  D.addNode("n1", "Thread 1:\nSet.add", "peripheries=2");
  D.addNode("n2", "Thread 2:\nSet.add");
  D.addEdge("n1", "n2", "wr x");
  D.addEdge("n2", "n1", "acq m", /*Dashed=*/true);
  std::string Out = D.str();
  EXPECT_NE(Out.find("digraph \"g\" {"), std::string::npos);
  EXPECT_NE(Out.find("\"n1\" [shape=box,label=\"Thread 1:\\nSet.add\","
                     "peripheries=2];"),
            std::string::npos);
  EXPECT_NE(Out.find("\"n2\" -> \"n1\" [label=\"acq m\",style=dashed];"),
            std::string::npos);
  EXPECT_EQ(Out.back(), '\n');
}

TEST(DotWriterTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(DotWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

} // namespace
} // namespace velo
