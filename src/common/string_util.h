// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// printf-style formatting into std::string — the one string helper the
// service replies, error messages and table benches lean on.

#ifndef GRAPHSCAPE_COMMON_STRING_UTIL_H_
#define GRAPHSCAPE_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <cstdio>
#include <string>

namespace graphscape {

/// printf into a std::string. Two-pass vsnprintf: the common short-output
/// case formats straight into a stack buffer; longer output sizes exactly.
inline std::string StrPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

inline std::string StrPrintf(const char* format, ...) {
  char stack_buffer[256];
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed =
      std::vsnprintf(stack_buffer, sizeof(stack_buffer), format, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return std::string();
  }
  if (static_cast<size_t>(needed) < sizeof(stack_buffer)) {
    va_end(args_copy);
    return std::string(stack_buffer, static_cast<size_t>(needed));
  }
  std::string result(static_cast<size_t>(needed), '\0');
  std::vsnprintf(&result[0], result.size() + 1, format, args_copy);
  va_end(args_copy);
  return result;
}

}  // namespace graphscape

#endif  // GRAPHSCAPE_COMMON_STRING_UTIL_H_
