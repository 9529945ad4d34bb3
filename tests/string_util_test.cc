// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "common/string_util.h"

#include <gtest/gtest.h>

#include <string>

namespace graphscape {
namespace {

TEST(StrPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StrPrintf("plain"), "plain");
  EXPECT_EQ(StrPrintf("%d + %d = %d", 2, 2, 4), "2 + 2 = 4");
  EXPECT_EQ(StrPrintf("%-6s|%8.3f", "ab", 1.5), "ab    |   1.500");
  EXPECT_EQ(StrPrintf("%s", ""), "");
}

TEST(StrPrintfTest, OutputLongerThanStackBufferIsExact) {
  const std::string long_arg(1000, 'x');
  const std::string result = StrPrintf("[%s]", long_arg.c_str());
  EXPECT_EQ(result.size(), 1002u);
  EXPECT_EQ(result.front(), '[');
  EXPECT_EQ(result.back(), ']');
  EXPECT_EQ(result.substr(1, 1000), long_arg);
}

}  // namespace
}  // namespace graphscape
