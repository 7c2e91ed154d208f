#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "util/crc32.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/timer.h"

namespace semdrift {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing pair");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kNotFound);
  EXPECT_EQ(s.message(), "missing pair");
  EXPECT_EQ(s.ToString(), "NotFound: missing pair");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::IOError("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

TEST(ResultTest, OkStatusWithoutValueBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "hello");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(7);
  std::unordered_set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, NextBoolFrequency) {
  Rng rng(19);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.3);
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(RngTest, ShuffleEmptyAndSingle) {
  Rng rng(29);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{5};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{5});
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(31);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.NextDiscrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 10000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[2] / 10000.0, 0.75, 0.02);
}

TEST(RngTest, DiscreteAllZeroWeightsReturnsLast) {
  Rng rng(37);
  std::vector<double> weights{0.0, 0.0, 0.0};
  EXPECT_EQ(rng.NextDiscrete(weights), 2u);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(50, 1.1);
  double total = 0.0;
  for (size_t r = 0; r < zipf.size(); ++r) total += zipf.Pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, PmfDecreasing) {
  ZipfSampler zipf(20, 0.9);
  for (size_t r = 1; r < zipf.size(); ++r) {
    EXPECT_LT(zipf.Pmf(r), zipf.Pmf(r - 1));
  }
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (size_t r = 0; r < zipf.size(); ++r) EXPECT_NEAR(zipf.Pmf(r), 0.1, 1e-12);
}

TEST(ZipfTest, SampleMatchesPmf) {
  ZipfSampler zipf(5, 1.0);
  Rng rng(41);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(counts[r] / static_cast<double>(n), zipf.Pmf(r), 0.01);
  }
}

class ZipfSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ZipfSizeTest, SamplesAlwaysInRange) {
  ZipfSampler zipf(GetParam(), 1.2);
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) EXPECT_LT(zipf.Sample(&rng), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZipfSizeTest, ::testing::Values(1, 2, 3, 10, 100, 1000));

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, CaseAndTrim) {
  EXPECT_EQ(ToLower("HeLLo"), "hello");
  EXPECT_EQ(Trim("  padded \t"), "padded");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("semantic drift", "sem"));
  EXPECT_FALSE(StartsWith("a", "ab"));
  EXPECT_TRUE(EndsWith("drifting", "ing"));
  EXPECT_FALSE(EndsWith("x", "yx2"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.9696, 3), "0.970");
  EXPECT_EQ(FormatDouble(1.0, 1), "1.0");
}

TEST(StringUtilTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(90521133), "90,521,133");
  EXPECT_EQ(FormatCount(-1234567), "-1,234,567");
}

TEST(TableWriterTest, AlignsAndCounts) {
  TableWriter table("demo");
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow("beta", {0.5}, 2);
  EXPECT_EQ(table.row_count(), 2u);
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("0.50"), std::string::npos);
}

TEST(TableWriterTest, CsvWritesAndEscapes) {
  TableWriter table("csv");
  table.SetHeader({"a", "b"});
  table.AddRow({"x,y", "plain"});
  std::string path = ::testing::TempDir() + "/semdrift_table.csv";
  ASSERT_TRUE(table.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",plain");
}

TEST(SeriesWriterTest, StoresPoints) {
  SeriesWriter series("fig");
  series.SetColumns({"x", "y"});
  series.AddPoint({1.0, 2.0});
  series.AddPoint({2.0});  // Padded to column count.
  ASSERT_EQ(series.points().size(), 2u);
  EXPECT_EQ(series.points()[1].size(), 2u);
  EXPECT_EQ(series.points()[1][1], 0.0);
}

TEST(TimerTest, MeasuresForwardTime) {
  Timer timer;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  timer.Reset();
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
}

/// Byte-at-a-time CRC-32 over the reflected IEEE polynomial, computed
/// bitwise: the reference the table-driven kernel must agree with.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size) {
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32Of("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32Of(""), 0u);
  EXPECT_EQ(Crc32().value(), 0u);
  EXPECT_EQ(Crc32Of("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Every length 0..256 at every start offset 0..7 covers the 8-byte main
  // loop, the byte tail, and unaligned loads.
  Rng rng(2024);
  std::vector<unsigned char> buffer(256 + 8);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng.NextBounded(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 256; ++length) {
      const unsigned char* p = buffer.data() + offset;
      Crc32 crc;
      crc.Update(p, length);
      ASSERT_EQ(crc.value(), ReferenceCrc32(p, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, SplitUpdatesEqualOneShot) {
  Rng rng(99);
  std::string data(1000, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextBounded(256));
  const uint32_t whole = Crc32Of(data);
  EXPECT_EQ(whole, ReferenceCrc32(reinterpret_cast<const unsigned char*>(data.data()),
                                  data.size()));
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<size_t> cuts = {0, data.size()};
    const size_t pieces = rng.NextBounded(6);
    for (size_t i = 0; i < pieces; ++i) cuts.push_back(rng.NextBounded(data.size() + 1));
    std::sort(cuts.begin(), cuts.end());
    Crc32 crc;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      crc.Update(std::string_view(data).substr(cuts[i], cuts[i + 1] - cuts[i]));
    }
    ASSERT_EQ(crc.value(), whole) << "trial " << trial;
  }
  Crc32 reset;
  reset.Update("garbage");
  reset.Reset();
  reset.Update(data);
  EXPECT_EQ(reset.value(), whole);
}

}  // namespace
}  // namespace semdrift
