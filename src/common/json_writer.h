#ifndef MRS_COMMON_JSON_WRITER_H_
#define MRS_COMMON_JSON_WRITER_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace mrs {

/// Appends JSON (or CSV) text to one caller-owned std::string without
/// intermediate strings: numbers go through std::to_chars straight into a
/// stack buffer, keys and punctuation are appended verbatim. The writer
/// does not track nesting; the caller emits the structure with Raw().
///
/// Fixed(v, p) is byte-identical to printf("%.*f", p, v) and General(v, p)
/// to printf("%.*g", p, v) for every finite v (std::to_chars with a
/// chars_format and a precision is specified as printf's "%.*f" / "%.*g"
/// in the C locale). A non-finite v is never printed: the writer emits
/// `null` in its place and clears ok(), so callers can turn the result
/// into a typed error instead of shipping invalid JSON.
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

  /// Fixed-point with `precision` (0..17) decimals, as printf("%.*f");
  /// see the class comment for non-finite values.
  JsonWriter& Fixed(double v, int precision);
  JsonWriter& Fixed6(double v) { return Fixed(v, 6); }

  /// `precision` (1..17) significant digits in the shorter of fixed and
  /// scientific notation, trailing zeros dropped, as printf("%.*g").
  JsonWriter& General(double v, int precision);

  /// `s` as a quoted JSON string: '"' and '\\' are backslash-escaped,
  /// \n \r \t use their short escapes, other control characters (< 0x20)
  /// become \u00XX. Bytes >= 0x80 pass through unchanged.
  JsonWriter& String(std::string_view s);

  /// False once any Fixed() or General() argument was NaN or infinite.
  bool ok() const { return ok_; }

 private:
  JsonWriter& Number(double v, std::chars_format format, int precision);

  std::string* out_;
  bool ok_ = true;
};

}  // namespace mrs

#endif  // MRS_COMMON_JSON_WRITER_H_
