#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace cod {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllCodesStringify) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
  EXPECT_EQ(Status::IoError("x").ToString(), "IO_ERROR: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FAILED_PRECONDITION: x");
  EXPECT_EQ(Status::Timeout("x").ToString(), "TIMEOUT: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status FailThenPropagate() {
  COD_RETURN_IF_ERROR(Status::Timeout("deadline"));
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailThenPropagate().code(), StatusCode::kTimeout);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformInt(bound), bound);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(11);
  int counts[10] = {};
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 10 * 0.15);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(StatsTest, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 0.0);
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.Add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.Min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 4.0);
  EXPECT_NEAR(acc.StdDev(), 1.2909944, 1e-6);
}

TEST(StatsTest, AccumulatorSingleValueHasZeroStdDev) {
  Accumulator acc;
  acc.Add(5.0);
  EXPECT_DOUBLE_EQ(acc.StdDev(), 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(TableTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer-name", "22"});
  // Render to a temp file and check the contents line up.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.Print(f);
  std::rewind(f);
  char buf[256];
  std::string all;
  while (std::fgets(buf, sizeof(buf), f)) all += buf;
  std::fclose(f);
  EXPECT_NE(all.find("name"), std::string::npos);
  EXPECT_NE(all.find("longer-name"), std::string::npos);
  // Header and rows share column offsets: "value" starts after widest name.
  EXPECT_NE(all.find("name         value"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Fmt(size_t{42}), "42");
  EXPECT_EQ(TablePrinter::Fmt(-3), "-3");
}

// CRC32C known answers: the check value of the CRC catalogue and the
// iSCSI test vectors of RFC 3720, appendix B.4.
TEST(Crc32cTest, KnownAnswers) {
  std::string zeros(32, '\0');
  std::string ones(32, '\xff');
  std::string up(32, '\0');
  std::string down(32, '\0');
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  const std::vector<std::pair<std::string, uint32_t>> cases = {
      {"", 0x00000000u},      {"123456789", 0xE3069283u},
      {zeros, 0x8A9136AAu},   {ones, 0x62A8AB43u},
      {up, 0x46DD794Eu},      {down, 0x113FDB5Cu},
  };
  for (const auto& [bytes, want] : cases) {
    EXPECT_EQ(Crc32c(bytes), want);
    EXPECT_EQ(Crc32cExtendPortable(0, bytes.data(), bytes.size()), want);
    if (Crc32cHardwareAvailable()) {
      EXPECT_EQ(Crc32cExtendHardware(0, bytes.data(), bytes.size()), want);
    }
  }
}

// Every start offset (alignment) and every length around the 8-byte word
// size: the hardware path, the dispatched one and chunked extension all
// equal the portable reference.
TEST(Crc32cTest, PathsAgreeAtEveryOffsetAndLength) {
  Rng rng(11);
  std::vector<unsigned char> buf(320);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; offset + len <= 300; ++len) {
      const unsigned char* p = buf.data() + offset;
      const uint32_t want = Crc32cExtendPortable(0, p, len);
      ASSERT_EQ(Crc32c(p, len), want) << offset << "+" << len;
      if (Crc32cHardwareAvailable()) {
        ASSERT_EQ(Crc32cExtendHardware(0, p, len), want)
            << offset << "+" << len;
      }
      const size_t cut = len / 3;
      ASSERT_EQ(Crc32cExtend(Crc32c(p, cut), p + cut, len - cut), want)
          << offset << "+" << len;
      ASSERT_EQ(Crc32cExtendPortable(Crc32cExtendPortable(0, p, cut), p + cut,
                                     len - cut),
                want);
    }
  }
}

}  // namespace
}  // namespace cod
