// Tests for the append-into-buffer JSON writer (common/json_writer.h):
// Fixed6 / Fixed(·, 3) / General(·, 9) are byte-identical to printf's
// "%.6f" / "%.3f" / "%.9g" on edge and random doubles, integers match
// %lld/%llu, strings escape to valid JSON, and non-finite numbers are
// refused (written as null, ok() cleared) rather than printed.

#include "common/json_writer.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "json_check.h"

namespace mrs {
namespace {

using testing_util::IsValidJson;

std::string Fixed6Of(double v) {
  std::string out;
  JsonWriter w(&out);
  w.Fixed6(v);
  EXPECT_TRUE(w.ok()) << out;
  return out;
}

std::string Fixed3Of(double v) {
  std::string out;
  JsonWriter w(&out);
  w.Fixed(v, 3);
  EXPECT_TRUE(w.ok()) << out;
  return out;
}

std::string General9Of(double v) {
  std::string out;
  JsonWriter w(&out);
  w.General(v, 9);
  EXPECT_TRUE(w.ok()) << out;
  return out;
}

// Edge doubles for every printf oracle below: signed zero, the rounding
// boundaries of the sixth and third decimals, exact binary ties, the
// fixed/scientific switch of %g, huge and denormal magnitudes.
const double kEdges[] = {
    0.0,
    -0.0,
    5e-7,
    4.999999e-7,
    5.000001e-7,
    1e-6,
    0.0078125,  // exact binary tie at the sixth decimal
    0.0000025,
    1.0000005,
    0.1,
    123.4567895,
    999999.9999995,
    1e15,
    1e300,
    DBL_MAX,
    DBL_MIN,
    DBL_TRUE_MIN,  // smallest denormal
    2.2250738585072009e-308,  // largest denormal
    4.9e-310,
    9007199254740993.0,
    static_cast<double>(INT64_MAX),
    0.0005,  // %.3f rounding boundary
    0.0625,  // exact binary tie at the third decimal
    1.0005,
    123456789.0,  // nine significant digits, still fixed under %.9g
    1234567890.0,  // ten: %.9g switches to scientific
    1e-4,  // %.9g's fixed/scientific boundary below 1
    9.99999999e-5,
    0.999999999,
    0.9999999995,  // rounds up to 1 at nine significant digits
    1.23456789e-300,
};

TEST(JsonWriterTest, Fixed6MatchesPrintfOnEdgeDoubles) {
  for (double v : kEdges) {
    for (double signed_v : {v, -v}) {
      EXPECT_EQ(Fixed6Of(signed_v), StrFormat("%.6f", signed_v))
          << "value " << StrFormat("%a", signed_v);
    }
  }
}

TEST(JsonWriterTest, Fixed3AndGeneral9MatchPrintfOnEdgeDoubles) {
  for (double v : kEdges) {
    for (double signed_v : {v, -v}) {
      EXPECT_EQ(Fixed3Of(signed_v), StrFormat("%.3f", signed_v))
          << "value " << StrFormat("%a", signed_v);
      EXPECT_EQ(General9Of(signed_v), StrFormat("%.9g", signed_v))
          << "value " << StrFormat("%a", signed_v);
    }
  }
}

TEST(JsonWriterTest, Fixed6MatchesPrintfOnRandomDoubles) {
  Rng rng(20240611);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform magnitudes across the range a schedule can hold, plus
    // raw bit patterns for everything else.
    double v = rng.LogUniform(1e-9, 1e12);
    if (rng.Bernoulli(0.5)) v = -v;
    if (i % 10 == 0) {
      const uint64_t bits = rng.Next();
      std::memcpy(&v, &bits, sizeof(v));
      if (!std::isfinite(v)) continue;
    }
    ASSERT_EQ(Fixed6Of(v), StrFormat("%.6f", v))
        << "value " << StrFormat("%a", v);
  }
}

TEST(JsonWriterTest, Fixed3AndGeneral9MatchPrintfOnRandomDoubles) {
  Rng rng(20261019);
  for (int i = 0; i < 20000; ++i) {
    double v = rng.LogUniform(1e-12, 1e15);
    if (rng.Bernoulli(0.5)) v = -v;
    if (i % 10 == 0) {
      const uint64_t bits = rng.Next();
      std::memcpy(&v, &bits, sizeof(v));
      if (!std::isfinite(v)) continue;
    }
    ASSERT_EQ(Fixed3Of(v), StrFormat("%.3f", v))
        << "value " << StrFormat("%a", v);
    ASSERT_EQ(General9Of(v), StrFormat("%.9g", v))
        << "value " << StrFormat("%a", v);
  }
}

TEST(JsonWriterTest, IntegersMatchPrintf) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{42}, INT64_MIN,
                    INT64_MAX}) {
    std::string out;
    JsonWriter(&out).Int(v);
    EXPECT_EQ(out, StrFormat("%lld", static_cast<long long>(v)));
  }
  for (uint64_t v : {uint64_t{0}, uint64_t{7}, UINT64_MAX}) {
    std::string out;
    JsonWriter(&out).Uint(v);
    EXPECT_EQ(out, StrFormat("%llu", static_cast<unsigned long long>(v)));
  }
}

TEST(JsonWriterTest, NonFiniteNumbersAreRefused) {
  for (double v : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    std::string out;
    JsonWriter w(&out);
    w.Raw("[").Fixed6(1.0).Raw(',').Fixed6(v).Raw(']');
    EXPECT_FALSE(w.ok());
    EXPECT_EQ(out, "[1.000000,null]");
    EXPECT_TRUE(IsValidJson(out));
    std::string fixed3;
    EXPECT_FALSE(JsonWriter(&fixed3).Fixed(v, 3).ok());
    EXPECT_EQ(fixed3, "null");
    std::string general;
    EXPECT_FALSE(JsonWriter(&general).General(v, 9).ok());
    EXPECT_EQ(general, "null");
  }
  std::string out;
  JsonWriter w(&out);
  w.Fixed6(1.0).Int(3).String("x");
  EXPECT_TRUE(w.ok());
}

TEST(JsonWriterTest, StringEscapesToValidJson) {
  std::string out;
  JsonWriter(&out).String("a\"b\\c\nd\x01" "e\tf\rg\x1fh\xc3\xa9");
  EXPECT_EQ(out,
            "\"a\\\"b\\\\c\\nd\\u0001e\\tf\\rg\\u001fh\xc3\xa9\"");
  EXPECT_TRUE(IsValidJson(out));

  std::string all;
  for (int c = 1; c < 0x80; ++c) all.push_back(static_cast<char>(c));
  out.clear();
  JsonWriter(&out).String(all);
  EXPECT_TRUE(IsValidJson(out)) << out;
}

TEST(JsonWriterTest, AppendsWithoutClobberingTheBuffer) {
  std::string out = "prefix:";
  JsonWriter(&out).Raw("{\"k\":").Fixed6(2.5).Raw('}');
  EXPECT_EQ(out, "prefix:{\"k\":2.500000}");
}

}  // namespace
}  // namespace mrs
