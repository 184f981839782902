#include "simrank/common/json_writer.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include <gtest/gtest.h>

namespace simrank {
namespace {

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter object;
  object.BeginObject().EndObject();
  EXPECT_EQ(object.str(), "{}");

  JsonWriter array;
  array.BeginArray().EndArray();
  EXPECT_EQ(array.str(), "[]");
}

TEST(JsonWriterTest, ObjectMembersAndNesting) {
  JsonWriter json;
  json.BeginObject()
      .Key("name")
      .String("walk-index")
      .Key("vertices")
      .Uint(10000)
      .Key("offset")
      .Int(-3)
      .Key("ok")
      .Bool(true)
      .Key("missing")
      .Null()
      .Key("nested")
      .BeginObject()
      .Key("list")
      .BeginArray()
      .Uint(1)
      .Uint(2)
      .EndArray()
      .EndObject()
      .EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"walk-index\",\"vertices\":10000,\"offset\":-3,"
            "\"ok\":true,\"missing\":null,\"nested\":{\"list\":[1,2]}}");
}

TEST(JsonWriterTest, ArrayCommaPlacement) {
  JsonWriter json;
  json.BeginArray().Double(0.5).Double(0.25).Double(0.125).EndArray();
  EXPECT_EQ(json.str(), "[0.5,0.25,0.125]");
}

TEST(JsonWriterTest, StringEscaping) {
  JsonWriter json;
  json.String("quote\" backslash\\ newline\n tab\t bell\x01");
  EXPECT_EQ(json.str(),
            "\"quote\\\" backslash\\\\ newline\\n tab\\t bell\\u0001\"");
}

TEST(JsonWriterTest, RootScalar) {
  JsonWriter json;
  json.Uint(42);
  EXPECT_EQ(json.str(), "42");
}

TEST(JsonDoubleTest, ShortestFormRoundTripsBitwise) {
  const double values[] = {0.0,
                           0.6,
                           1.0 / 3.0,
                           0.008774999999999998,
                           -1.5e-17,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (const double value : values) {
    const std::string text = JsonDouble(value);
    const double parsed = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(parsed, value) << "through " << text;
  }
  // Human-scale values stay human-readable.
  EXPECT_EQ(JsonDouble(0.6), "0.6");
  EXPECT_EQ(JsonDouble(0.0), "0");
}

TEST(JsonDoubleTest, SignedZerosKeepTheirSign) {
  EXPECT_EQ(JsonDouble(0.0), "0");
  EXPECT_EQ(JsonDouble(-0.0), "-0");
  EXPECT_TRUE(std::signbit(std::strtod(JsonDouble(-0.0).c_str(), nullptr)));
  JsonWriter json;
  json.BeginArray().Double(0.0).Double(-0.0).Double(0.5).EndArray();
  EXPECT_EQ(json.str(), "[0,-0,0.5]");
}

TEST(JsonDoubleTest, NonFiniteRendersNull) {
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
  JsonWriter json;
  json.BeginArray()
      .Double(std::numeric_limits<double>::infinity())
      .EndArray();
  EXPECT_EQ(json.str(), "[null]");
}

}  // namespace
}  // namespace simrank
