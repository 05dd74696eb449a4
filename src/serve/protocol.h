// The wire protocol of the serving front end: length-prefixed binary frames
// over a Connection (src/util/socket.h).
//
// Frame:   u32 LE body length, then the body. Bodies above kMaxFrameBytes
//          are rejected before allocation — a forged length must not let one
//          client reserve gigabytes.
// Request: u8 type | u8 tenant_len + tenant | u8 index_len + index |
//          u64 deadline_micros (relative to receipt; 0 = none) |
//          u64 page_budget (0 = unlimited) | type-specific payload:
//            kQuery:  u32 k, u32 dim, dim x f32
//            kInsert: u32 id, u32 dim, dim x f32
//            kDelete: u32 id
//            kHealth / kReady: empty
// Response: u8 type (echo) | u8 status code | u8 termination |
//           u16 msg_len + message | payload (only when the code is OK):
//            kQuery:  u32 n, n x (u32 id, f32 dist)
//            kHealth / kReady: u8 flag
//
// The contract that makes degraded results safe on the wire: a response is
// either an error (nonzero code, client may retry iff code == kUnavailable
// using the decorrelated-jitter backoff of util/retry.h) or a success whose
// `termination` tag says exactly how complete it is — kDeadline/kCancelled
// mark best-effort partial results, never silently-wrong ones.
//
// All integers little-endian, matching the storage layer's serialization.

#pragma once
#ifndef C2LSH_SERVE_PROTOCOL_H_
#define C2LSH_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/query_context.h"
#include "src/util/socket.h"
#include "src/util/status.h"
#include "src/vector/types.h"

namespace c2lsh {
namespace serve {

/// Hard cap on one frame body. Large enough for a 1M-dim vector or ~1M
/// neighbors, small enough that a forged length cannot exhaust memory.
inline constexpr size_t kMaxFrameBytes = 16u << 20;

/// Caps on the variable-length request fields.
inline constexpr size_t kMaxTenantBytes = 64;
inline constexpr size_t kMaxIndexNameBytes = 64;
inline constexpr size_t kMaxMessageBytes = 512;

enum class MsgType : uint8_t {
  kQuery = 1,
  kInsert = 2,
  kDelete = 3,
  kHealth = 4,  ///< liveness: the process answers frames
  kReady = 5,   ///< readiness: accepting query traffic (false while draining)
};

/// True for the types DecodeRequest accepts.
bool ValidMsgType(uint8_t t);

/// True when a termination tag marks a best-effort PARTIAL result (deadline
/// or budget expiry, cooperative cancellation) — the tags clients must honor
/// before treating a result set as complete. The one definition lives in
/// util/query_context.h; serve::IsEarlyStop names it for wire clients.
using ::c2lsh::IsEarlyStop;

struct Request {
  MsgType type = MsgType::kHealth;
  std::string tenant;
  std::string index;
  uint64_t deadline_micros = 0;  ///< relative budget; 0 = no deadline
  uint64_t page_budget = 0;      ///< 0 = unlimited
  uint32_t k = 0;                ///< kQuery
  uint32_t id = 0;               ///< kInsert / kDelete
  std::vector<float> vector;     ///< kQuery / kInsert payload
};

struct Response {
  MsgType type = MsgType::kHealth;
  StatusCode code = StatusCode::kOk;
  Termination termination = Termination::kNone;
  std::string message;               ///< truncated to kMaxMessageBytes
  std::vector<Neighbor> neighbors;   ///< kQuery payload
  uint8_t flag = 0;                  ///< kHealth / kReady payload
};

/// Serializes a request (resp. response) BODY — no length prefix; that is
/// WriteFrame's job. Encoders trust their caller (sizes beyond the wire
/// caps are the caller's bug and are clamped or rejected at decode).
std::string EncodeRequest(const Request& req);
std::string EncodeResponse(const Response& resp);

/// Parses a body. InvalidArgument on malformed input (bad type, trailing
/// bytes, truncated fields, over-cap strings) — decoders never trust the
/// peer.
Status DecodeRequest(const uint8_t* data, size_t n, Request* out);
Status DecodeResponse(const uint8_t* data, size_t n, Response* out);

/// Writes one frame (length prefix + body) to `conn`.
Status WriteFrame(Connection& conn, const std::string& body,
                  const Deadline& deadline);

/// Reads one frame body. `*eof` is true (with OK) when the peer closed
/// cleanly on a frame boundary; a mid-frame close is Corruption, a body
/// length above kMaxFrameBytes is InvalidArgument.
Status ReadFrame(Connection& conn, std::string* body, bool* eof,
                 const Deadline& deadline);

}  // namespace serve
}  // namespace c2lsh

#endif  // C2LSH_SERVE_PROTOCOL_H_
