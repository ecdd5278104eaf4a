// Tests for the minimal JSON value (benchutil/json.h).
#include <gtest/gtest.h>

#include <string>

#include "benchutil/json.h"

namespace bwfft {
namespace {

TEST(Json, ParsesAndPreservesIntegers) {
  std::string err;
  const Json doc = Json::parse(
      R"({"a": 9007199254740993, "b": [1, 2.5, true, null, "x\"y"]})", &err);
  ASSERT_TRUE(err.empty()) << err;
  // 2^53+1 is not representable as a double; as_int must preserve it.
  EXPECT_EQ(9007199254740993LL, doc.find("a")->as_int());
  const Json* b = doc.find("b");
  ASSERT_NE(nullptr, b);
  ASSERT_EQ(5u, b->size());
  EXPECT_EQ(1, (*b)[0].as_int());
  EXPECT_DOUBLE_EQ(2.5, (*b)[1].as_double());
  EXPECT_TRUE((*b)[2].as_bool());
  EXPECT_TRUE((*b)[3].is_null());
  EXPECT_EQ("x\"y", (*b)[4].as_string());
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "tru", "1 2",
        "{\"a\" 1}", "\"unterminated"}) {
    std::string err;
    Json::parse(bad, &err);
    EXPECT_FALSE(err.empty()) << "should reject: " << bad;
    EXPECT_FALSE(Json::valid(bad));
  }
}

}  // namespace
}  // namespace bwfft
