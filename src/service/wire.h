// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Wire protocol of the Graphscape query service (docs/SERVICE.md is the
// normative specification; this header is its implementation). The
// protocol is deliberately asymmetric:
//
//   * REQUESTS are single ASCII lines ("PEAKS ba-demo KC 3.5\n") so an
//     operator can drive the daemon with nc and a shell — the worked
//     transcript in docs/SERVICE.md does exactly that. A line is a
//     frame: at most kMaxRequestLine bytes including the terminating
//     '\n', tokens separated by single spaces.
//   * RESPONSES are length-prefixed binary frames, because the payloads
//     that matter (TreeArtifact bytes, PPM tiles) are binary and big:
//
//       "GSRS" | u32 version | u32 wire code | u64 payload_len |
//       payload bytes | u64 fnv1a(payload)
//
//     all integers little-endian, total size kResponseOverheadBytes +
//     payload_len. The trailer checksum is the same FNV-1a the artifact
//     format embeds (scalar/tree_io.h), so a torn or corrupted response
//     is detected by the client, never silently consumed.
//
// Status codes cross the wire as explicit small integers (the kWire*
// constants below) mapped one-to-one onto common/status.h's StatusCode —
// a deliberate translation table, not a cast, so reordering the C++ enum
// can never silently change the protocol. On an error frame the payload
// is the human-readable Status message.
//
// Everything in this header is pure (no sockets, no I/O): parsing and
// framing are unit-testable and fuzzable in isolation
// (tests/wire_test.cc holds both directions to the tree_io_fuzz_test
// standard — malformed bytes always yield a structured Status, never a
// crash).

#ifndef GRAPHSCAPE_SERVICE_WIRE_H_
#define GRAPHSCAPE_SERVICE_WIRE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace graphscape {
namespace service {

/// Protocol version; bumped on any frame-layout or grammar change.
/// Responses carry it so clients reject newer servers instead of
/// misreading them (same compat rule as kTreeIoVersion).
inline constexpr uint32_t kWireVersion = 1;

/// Hard cap on a request line, terminating '\n' included. A longer line
/// is answered with INVALID_ARGUMENT and the connection is closed (the
/// remainder of the oversized line cannot be resynchronized).
inline constexpr uint32_t kMaxRequestLine = 4096;

/// Response frame overhead: magic(4) + version(4) + code(4) + len(8)
/// header, plus the 8-byte checksum trailer.
inline constexpr uint32_t kResponseHeaderBytes = 20;
inline constexpr uint32_t kResponseOverheadBytes = kResponseHeaderBytes + 8;

/// Decode-side sanity cap: a header advertising a payload beyond this is
/// rejected as InvalidArgument before any allocation (hostile peers must
/// not size our buffers).
inline constexpr uint64_t kMaxResponsePayload = 1ull << 30;

/// Wire status codes — the protocol-stable integers (docs/SERVICE.md
/// status table). Never renumber; append only.
inline constexpr uint32_t kWireOk = 0;
inline constexpr uint32_t kWireInvalidArgument = 1;
inline constexpr uint32_t kWireResourceExhausted = 2;
inline constexpr uint32_t kWireNotFound = 3;
inline constexpr uint32_t kWireDataLoss = 4;
inline constexpr uint32_t kWireUnavailable = 5;
inline constexpr uint32_t kWireDeadlineExceeded = 6;

/// StatusCode -> wire code (total: every StatusCode has a wire value).
uint32_t WireCodeFromStatus(StatusCode code);

/// Wire code -> StatusCode. InvalidArgument for integers no GraphScape
/// server of this version emits.
StatusOr<StatusCode> StatusCodeFromWire(uint32_t wire_code);

/// The request verbs, grammar order (docs/SERVICE.md §Verbs).
enum class Verb : uint8_t {
  kTree,         ///< TREE <dataset> <field>
  kPeaks,        ///< PEAKS <dataset> <field> <level>
  kTopPeaks,     ///< TOPPEAKS <dataset> <field> <k>
  kMembers,      ///< MEMBERS <dataset> <field> <node>
  kCorrelation,  ///< CORRELATION <dataset> <fieldA> <fieldB>
  kTile,         ///< TILE <dataset> <field> <azimuth> <elevation> <w> <h>
  kStats,        ///< STATS
};

/// One parsed request. Only the fields the verb's grammar names are
/// meaningful; the rest stay default-initialized.
struct Request {
  Verb verb = Verb::kStats;
  std::string dataset;
  std::string field;    // fieldA for CORRELATION
  std::string field_b;  // CORRELATION only
  double level = 0.0;   // PEAKS
  uint32_t k = 0;       // TOPPEAKS
  uint32_t node = 0;    // MEMBERS
  double azimuth_deg = 0.0;    // TILE
  double elevation_deg = 0.0;  // TILE
  uint32_t width = 0;          // TILE
  uint32_t height = 0;         // TILE
};

/// Parses one request line (with or without the trailing '\n').
/// InvalidArgument — with a message naming the offending token — on an
/// unknown verb, wrong argument count, a key token containing '/' or a
/// control byte, a non-finite or unconsumed number, or an oversized
/// line. Never throws, never crashes on hostile bytes
/// (tests/wire_test.cc fuzzes this entry point).
StatusOr<Request> ParseRequestLine(const std::string& line);

/// Renders `request` back to its canonical wire line (no trailing
/// '\n'). Doubles are emitted with %.17g, so
/// ParseRequestLine(FormatRequestLine(r)) reproduces r exactly — the
/// round-trip tests and the load generator both rely on it.
std::string FormatRequestLine(const Request& request);

/// Encodes one response frame. For an OK status `payload` is the verb's
/// result bytes; for an error the payload SHOULD be the Status message
/// (EncodeErrorFrame does exactly that).
std::string EncodeResponseFrame(uint32_t wire_code,
                                const std::string& payload);

/// The error-arm convenience: status.message() as the payload.
std::string EncodeErrorFrame(const Status& status);

/// A decoded response frame.
struct ResponseFrame {
  uint32_t wire_code = kWireOk;
  std::string payload;
};

/// Fixed-size header prefix, decoded separately so a streaming client
/// can read kResponseHeaderBytes, learn payload_len, then read exactly
/// payload_len + 8 more bytes. InvalidArgument on bad magic, a version
/// newer than kWireVersion, an unknown wire code, or an advertised
/// payload beyond kMaxResponsePayload.
struct ResponseHeader {
  uint32_t version = 0;
  uint32_t wire_code = 0;
  uint64_t payload_len = 0;
};
StatusOr<ResponseHeader> ParseResponseHeader(const std::string& bytes);

/// Parses and fully validates one complete frame (header + payload +
/// checksum trailer). InvalidArgument for malformed layout, DataLoss
/// when the layout parses but the checksum disagrees — the same split
/// as the artifact parser, and fuzzed to the same standard.
StatusOr<ResponseFrame> DecodeResponseFrame(const std::string& bytes);

}  // namespace service
}  // namespace graphscape

#endif  // GRAPHSCAPE_SERVICE_WIRE_H_
