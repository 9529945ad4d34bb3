// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "service/wire.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/string_util.h"
#include "scalar/tree_io.h"

namespace graphscape {
namespace service {
namespace {

constexpr char kResponseMagic[4] = {'G', 'S', 'R', 'S'};

void AppendU32(std::string* out, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

uint32_t ReadU32(const char* p) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(p[i]);
  }
  return value;
}

uint64_t ReadU64(const char* p) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(p[i]);
  }
  return value;
}

/// Splits on single spaces; empty tokens (leading/trailing/double
/// spaces) are grammar errors, reported by returning false.
bool Tokenize(const std::string& line, std::vector<std::string>* tokens) {
  tokens->clear();
  std::string current;
  for (char c : line) {
    if (c == ' ') {
      if (current.empty()) return false;
      tokens->push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (current.empty()) return false;
  tokens->push_back(current);
  return true;
}

/// A cache-key half: printable, no spaces (the tokenizer guarantees
/// that), no '/' (it is the canonical-key separator), no control bytes.
Status CheckKeyToken(const std::string& token, const char* what) {
  for (char c : token) {
    const unsigned char uc = static_cast<unsigned char>(c);
    if (c == '/' || uc < 0x20 || uc == 0x7f) {
      return Status::InvalidArgument(
          StrPrintf("%s token contains '/' or a control byte", what));
    }
  }
  return Status::Ok();
}

StatusOr<double> ParseFinite(const std::string& token, const char* what) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || token.empty() || errno != 0 ||
      !std::isfinite(value)) {
    return Status::InvalidArgument(
        StrPrintf("%s is not a finite number: '%s'", what, token.c_str()));
  }
  return value;
}

StatusOr<uint32_t> ParseU32(const std::string& token, const char* what) {
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument(
          StrPrintf("%s is not an unsigned integer: '%s'", what,
                    token.c_str()));
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(token.c_str(), &end, 10);
  if (token.empty() || end != token.c_str() + token.size() || errno != 0 ||
      value > 0xffffffffull) {
    return Status::InvalidArgument(
        StrPrintf("%s out of u32 range: '%s'", what, token.c_str()));
  }
  return static_cast<uint32_t>(value);
}

}  // namespace

uint32_t WireCodeFromStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return kWireOk;
    case StatusCode::kInvalidArgument:
      return kWireInvalidArgument;
    case StatusCode::kResourceExhausted:
      return kWireResourceExhausted;
    case StatusCode::kNotFound:
      return kWireNotFound;
    case StatusCode::kDataLoss:
      return kWireDataLoss;
    case StatusCode::kUnavailable:
      return kWireUnavailable;
    case StatusCode::kDeadlineExceeded:
      return kWireDeadlineExceeded;
  }
  return kWireUnavailable;  // unreachable; fail toward the retryable class
}

StatusOr<StatusCode> StatusCodeFromWire(uint32_t wire_code) {
  switch (wire_code) {
    case kWireOk:
      return StatusCode::kOk;
    case kWireInvalidArgument:
      return StatusCode::kInvalidArgument;
    case kWireResourceExhausted:
      return StatusCode::kResourceExhausted;
    case kWireNotFound:
      return StatusCode::kNotFound;
    case kWireDataLoss:
      return StatusCode::kDataLoss;
    case kWireUnavailable:
      return StatusCode::kUnavailable;
    case kWireDeadlineExceeded:
      return StatusCode::kDeadlineExceeded;
    default:
      return Status::InvalidArgument(
          StrPrintf("unknown wire status code %u", wire_code));
  }
}

StatusOr<Request> ParseRequestLine(const std::string& line) {
  if (line.size() > kMaxRequestLine) {
    return Status::InvalidArgument(
        StrPrintf("request line exceeds %u bytes", kMaxRequestLine));
  }
  std::string stripped = line;
  while (!stripped.empty() &&
         (stripped.back() == '\n' || stripped.back() == '\r')) {
    stripped.pop_back();
  }
  std::vector<std::string> tokens;
  if (!Tokenize(stripped, &tokens)) {
    return Status::InvalidArgument(
        "empty request or empty token (double/leading/trailing space)");
  }

  Request request;
  const std::string& verb = tokens[0];
  const size_t args = tokens.size() - 1;

  auto take_keys = [&](size_t count) -> Status {
    static const char* const kWhat[] = {"dataset", "field", "fieldB"};
    std::string* const slots[] = {&request.dataset, &request.field,
                                  &request.field_b};
    for (size_t i = 0; i < count; ++i) {
      Status key_ok = CheckKeyToken(tokens[1 + i], kWhat[i]);
      if (!key_ok.ok()) return key_ok;
      *slots[i] = tokens[1 + i];
    }
    return Status::Ok();
  };
  auto arity_error = [&](const char* grammar) {
    return Status::InvalidArgument(
        StrPrintf("%s takes %s (got %zu arguments)", verb.c_str(), grammar,
                  args));
  };

  if (verb == "TREE") {
    request.verb = Verb::kTree;
    if (args != 2) return arity_error("<dataset> <field>");
    Status keys = take_keys(2);
    if (!keys.ok()) return keys;
    return request;
  }
  if (verb == "PEAKS") {
    request.verb = Verb::kPeaks;
    if (args != 3) return arity_error("<dataset> <field> <level>");
    Status keys = take_keys(2);
    if (!keys.ok()) return keys;
    StatusOr<double> level = ParseFinite(tokens[3], "level");
    if (!level.ok()) return level.status();
    request.level = level.value();
    return request;
  }
  if (verb == "TOPPEAKS") {
    request.verb = Verb::kTopPeaks;
    if (args != 3) return arity_error("<dataset> <field> <k>");
    Status keys = take_keys(2);
    if (!keys.ok()) return keys;
    StatusOr<uint32_t> k = ParseU32(tokens[3], "k");
    if (!k.ok()) return k.status();
    request.k = k.value();
    return request;
  }
  if (verb == "MEMBERS") {
    request.verb = Verb::kMembers;
    if (args != 3) return arity_error("<dataset> <field> <node>");
    Status keys = take_keys(2);
    if (!keys.ok()) return keys;
    StatusOr<uint32_t> node = ParseU32(tokens[3], "node");
    if (!node.ok()) return node.status();
    request.node = node.value();
    return request;
  }
  if (verb == "CORRELATION") {
    request.verb = Verb::kCorrelation;
    if (args != 3) return arity_error("<dataset> <fieldA> <fieldB>");
    Status keys = take_keys(3);
    if (!keys.ok()) return keys;
    return request;
  }
  if (verb == "TILE") {
    request.verb = Verb::kTile;
    if (args != 6) {
      return arity_error("<dataset> <field> <azimuth> <elevation> <w> <h>");
    }
    Status keys = take_keys(2);
    if (!keys.ok()) return keys;
    StatusOr<double> azimuth = ParseFinite(tokens[3], "azimuth");
    if (!azimuth.ok()) return azimuth.status();
    StatusOr<double> elevation = ParseFinite(tokens[4], "elevation");
    if (!elevation.ok()) return elevation.status();
    StatusOr<uint32_t> width = ParseU32(tokens[5], "width");
    if (!width.ok()) return width.status();
    StatusOr<uint32_t> height = ParseU32(tokens[6], "height");
    if (!height.ok()) return height.status();
    request.azimuth_deg = azimuth.value();
    request.elevation_deg = elevation.value();
    request.width = width.value();
    request.height = height.value();
    return request;
  }
  if (verb == "STATS") {
    request.verb = Verb::kStats;
    if (args != 0) return arity_error("no arguments");
    return request;
  }
  return Status::InvalidArgument(
      StrPrintf("unknown verb '%s'", verb.c_str()));
}

std::string FormatRequestLine(const Request& request) {
  switch (request.verb) {
    case Verb::kTree:
      return StrPrintf("TREE %s %s", request.dataset.c_str(),
                       request.field.c_str());
    case Verb::kPeaks:
      return StrPrintf("PEAKS %s %s %.17g", request.dataset.c_str(),
                       request.field.c_str(), request.level);
    case Verb::kTopPeaks:
      return StrPrintf("TOPPEAKS %s %s %u", request.dataset.c_str(),
                       request.field.c_str(), request.k);
    case Verb::kMembers:
      return StrPrintf("MEMBERS %s %s %u", request.dataset.c_str(),
                       request.field.c_str(), request.node);
    case Verb::kCorrelation:
      return StrPrintf("CORRELATION %s %s %s", request.dataset.c_str(),
                       request.field.c_str(), request.field_b.c_str());
    case Verb::kTile:
      return StrPrintf("TILE %s %s %.17g %.17g %u %u",
                       request.dataset.c_str(), request.field.c_str(),
                       request.azimuth_deg, request.elevation_deg,
                       request.width, request.height);
    case Verb::kStats:
      return "STATS";
  }
  return "";
}

std::string EncodeResponseFrame(uint32_t wire_code,
                                const std::string& payload) {
  std::string frame;
  frame.reserve(kResponseOverheadBytes + payload.size());
  frame.append(kResponseMagic, sizeof(kResponseMagic));
  AppendU32(&frame, kWireVersion);
  AppendU32(&frame, wire_code);
  AppendU64(&frame, payload.size());
  frame.append(payload);
  AppendU64(&frame, Fnv1aChecksum(payload));
  return frame;
}

std::string EncodeErrorFrame(const Status& status) {
  return EncodeResponseFrame(WireCodeFromStatus(status.code()),
                             status.message());
}

StatusOr<ResponseHeader> ParseResponseHeader(const std::string& bytes) {
  if (bytes.size() < kResponseHeaderBytes) {
    return Status::InvalidArgument(
        StrPrintf("response header truncated: %zu of %u bytes",
                  bytes.size(), kResponseHeaderBytes));
  }
  if (std::memcmp(bytes.data(), kResponseMagic, sizeof(kResponseMagic)) !=
      0) {
    return Status::InvalidArgument("bad response magic (want GSRS)");
  }
  ResponseHeader header;
  header.version = ReadU32(bytes.data() + 4);
  header.wire_code = ReadU32(bytes.data() + 8);
  header.payload_len = ReadU64(bytes.data() + 12);
  if (header.version == 0 || header.version > kWireVersion) {
    return Status::InvalidArgument(
        StrPrintf("unsupported wire version %u (this client speaks <= %u)",
                  header.version, kWireVersion));
  }
  StatusOr<StatusCode> code = StatusCodeFromWire(header.wire_code);
  if (!code.ok()) return code.status();
  if (header.payload_len > kMaxResponsePayload) {
    return Status::InvalidArgument(
        StrPrintf("advertised payload of %llu bytes exceeds the %llu cap",
                  static_cast<unsigned long long>(header.payload_len),
                  static_cast<unsigned long long>(kMaxResponsePayload)));
  }
  return header;
}

StatusOr<ResponseFrame> DecodeResponseFrame(const std::string& bytes) {
  StatusOr<ResponseHeader> header = ParseResponseHeader(bytes);
  if (!header.ok()) return header.status();
  const uint64_t expect =
      kResponseOverheadBytes + header.value().payload_len;
  if (bytes.size() != expect) {
    return Status::InvalidArgument(
        StrPrintf("frame is %zu bytes, header promises %llu", bytes.size(),
                  static_cast<unsigned long long>(expect)));
  }
  ResponseFrame frame;
  frame.wire_code = header.value().wire_code;
  frame.payload = bytes.substr(kResponseHeaderBytes,
                               header.value().payload_len);
  const uint64_t stored =
      ReadU64(bytes.data() + kResponseHeaderBytes +
              header.value().payload_len);
  if (stored != Fnv1aChecksum(frame.payload)) {
    return Status::DataLoss("response payload checksum mismatch");
  }
  return frame;
}

}  // namespace service
}  // namespace graphscape
