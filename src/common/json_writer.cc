#include "common/json_writer.h"

#include <charconv>
#include <cmath>

namespace mrs {

namespace {

// "%.17f" of DBL_MAX is 309 integer digits, the point, 17 decimals and a
// sign: 328 characters. "%.17g" needs at most 24.
constexpr size_t kNumberMax = 336;

}  // namespace

JsonWriter& JsonWriter::Int(int64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out_->append(buf, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out_->append(buf, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::Number(double v, std::chars_format format,
                               int precision) {
  char buf[kNumberMax];
  std::to_chars_result r{buf, std::errc::invalid_argument};
  if (std::isfinite(v)) {
    r = std::to_chars(buf, buf + sizeof(buf), v, format, precision);
  }
  if (r.ec != std::errc()) {  // non-finite, or precision out of range
    ok_ = false;
    out_->append("null");
    return *this;
  }
  out_->append(buf, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::Fixed(double v, int precision) {
  return Number(v, std::chars_format::fixed, precision);
}

JsonWriter& JsonWriter::General(double v, int precision) {
  return Number(v, std::chars_format::general, precision);
}

JsonWriter& JsonWriter::String(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out_->append("\\\"");
        break;
      case '\\':
        out_->append("\\\\");
        break;
      case '\n':
        out_->append("\\n");
        break;
      case '\r':
        out_->append("\\r");
        break;
      case '\t':
        out_->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char esc[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                              kHex[c & 0xf]};
          out_->append(esc, sizeof(esc));
        } else {
          out_->push_back(c);
        }
    }
  }
  out_->push_back('"');
  return *this;
}

}  // namespace mrs
