#include "net/frame.h"

#include <bit>
#include <cstring>

namespace clover::net {
namespace {

static_assert(std::endian::native == std::endian::little,
              "frame codec assumes a little-endian host");
static_assert(sizeof(double) == 8, "frame codec assumes binary64 doubles");

void PutU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  const auto n = out->size();
  out->resize(n + 4);
  std::memcpy(out->data() + n, &v, 4);
}

void PutU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  const auto n = out->size();
  out->resize(n + 8);
  std::memcpy(out->data() + n, &v, 8);
}

void PutF64(std::vector<std::uint8_t>* out, double v) {
  const auto n = out->size();
  out->resize(n + 8);
  std::memcpy(out->data() + n, &v, 8);
}

std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

double GetF64(const std::uint8_t* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

void AppendRequest(std::vector<std::uint8_t>* out, const RequestFrame& frame) {
  PutU32(out, kRequestFrameBytes - kFrameHeaderBytes);
  out->push_back(static_cast<std::uint8_t>(FrameType::kRequest));
  PutU64(out, frame.request_id);
  PutF64(out, frame.virtual_ts_s);
}

void AppendResponse(std::vector<std::uint8_t>* out,
                    const ResponseFrame& frame) {
  PutU32(out, kResponseFrameBytes - kFrameHeaderBytes);
  out->push_back(static_cast<std::uint8_t>(FrameType::kResponse));
  PutU64(out, frame.request_id);
  out->push_back(static_cast<std::uint8_t>(frame.status));
  PutF64(out, frame.latency_virtual_ms);
  PutF64(out, frame.accuracy);
}

void AppendClockBeacon(std::vector<std::uint8_t>* out,
                       const ClockBeaconFrame& frame) {
  PutU32(out, kClockBeaconFrameBytes - kFrameHeaderBytes);
  out->push_back(static_cast<std::uint8_t>(FrameType::kClockBeacon));
  PutF64(out, frame.virtual_ts_s);
}

void FrameDecoder::Feed(const std::uint8_t* data, std::size_t size) {
  if (error_ || size == 0) return;
  // Compact before growing: the consumed prefix is dead weight and the
  // buffer would otherwise grow without bound on a long-lived connection.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  // resize + memcpy rather than a range insert: GCC 12's LTO build
  // misreads the inlined insert as an overflowing memmove
  // (-Wstringop-overflow).
  const std::size_t old_size = buffer_.size();
  buffer_.resize(old_size + size);
  std::memcpy(buffer_.data() + old_size, data, size);
}

std::optional<Frame> FrameDecoder::Next() {
  if (error_) return std::nullopt;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* p = buffer_.data() + consumed_;
  const std::uint32_t payload_len = GetU32(p);
  if (payload_len == 0 || payload_len > kMaxPayloadBytes) {
    error_ = true;
    return std::nullopt;
  }
  if (available < kFrameHeaderBytes + payload_len) return std::nullopt;
  const std::uint8_t* payload = p + kFrameHeaderBytes;

  Frame frame;
  switch (static_cast<FrameType>(payload[0])) {
    case FrameType::kRequest:
      if (payload_len != kRequestFrameBytes - kFrameHeaderBytes) break;
      frame.type = FrameType::kRequest;
      frame.request.request_id = GetU64(payload + 1);
      frame.request.virtual_ts_s = GetF64(payload + 9);
      consumed_ += kFrameHeaderBytes + payload_len;
      return frame;
    case FrameType::kResponse: {
      if (payload_len != kResponseFrameBytes - kFrameHeaderBytes) break;
      const std::uint8_t status = payload[9];
      if (status > static_cast<std::uint8_t>(ResponseStatus::kShedQueue))
        break;
      frame.type = FrameType::kResponse;
      frame.response.request_id = GetU64(payload + 1);
      frame.response.status = static_cast<ResponseStatus>(status);
      frame.response.latency_virtual_ms = GetF64(payload + 10);
      frame.response.accuracy = GetF64(payload + 18);
      consumed_ += kFrameHeaderBytes + payload_len;
      return frame;
    }
    case FrameType::kClockBeacon:
      if (payload_len != kClockBeaconFrameBytes - kFrameHeaderBytes) break;
      frame.type = FrameType::kClockBeacon;
      frame.beacon.virtual_ts_s = GetF64(payload + 1);
      consumed_ += kFrameHeaderBytes + payload_len;
      return frame;
    default:
      break;
  }
  error_ = true;
  return std::nullopt;
}

}  // namespace clover::net
