#ifndef MRS_COMMON_JSON_WRITER_H_
#define MRS_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace mrs {

/// Appends JSON (or CSV) text to one caller-owned std::string without
/// intermediate strings: numbers go through std::to_chars straight into a
/// stack buffer, keys and punctuation are appended verbatim. The writer
/// does not track nesting; the caller emits the structure with Raw().
///
/// Fixed6(v) is byte-identical to printf("%.6f", v) for every finite v
/// (std::to_chars with chars_format::fixed and a precision is specified
/// as printf's "%.*f" in the C locale). A non-finite v is never printed:
/// the writer emits `null` in its place and clears ok(), so callers can
/// turn the result into a typed error instead of shipping invalid JSON.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  /// Appends `s` verbatim (keys, punctuation, pre-escaped literals).
  JsonWriter& Raw(std::string_view s) {
    out_->append(s);
    return *this;
  }
  JsonWriter& Raw(char c) {
    out_->push_back(c);
    return *this;
  }

  /// Decimal integer, as printf("%lld") / printf("%llu").
  JsonWriter& Int(int64_t v);
  JsonWriter& Uint(uint64_t v);

  /// Fixed-point with six decimals, as printf("%.6f"); see class comment
  /// for non-finite values.
  JsonWriter& Fixed6(double v);

  /// `s` as a quoted JSON string: '"' and '\\' are backslash-escaped,
  /// \n \r \t use their short escapes, other control characters (< 0x20)
  /// become \u00XX. Bytes >= 0x80 pass through unchanged.
  JsonWriter& String(std::string_view s);

  /// False once any Fixed6() argument was NaN or infinite.
  bool ok() const { return ok_; }

 private:
  std::string* out_;
  bool ok_ = true;
};

}  // namespace mrs

#endif  // MRS_COMMON_JSON_WRITER_H_
