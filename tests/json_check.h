#ifndef MRS_TESTS_JSON_CHECK_H_
#define MRS_TESTS_JSON_CHECK_H_

#include <cctype>
#include <cstring>
#include <string_view>

namespace mrs {
namespace testing_util {

/// Strict one-pass RFC 8259 syntax check: one value, optional surrounding
/// whitespace, no trailing bytes. Rejects raw control characters in
/// strings and the non-JSON number tokens nan/inf that printf emits.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return i_ == s_.size();
  }

 private:
  bool Value() {
    if (++depth_ > 256) return false;
    bool ok = false;
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{':
        ok = Object();
        break;
      case '[':
        ok = Array();
        break;
      case '"':
        ok = String();
        break;
      case 't':
        ok = Literal("true");
        break;
      case 'f':
        ok = Literal("false");
        break;
      case 'n':
        ok = Literal("null");
        break;
      default:
        ok = Number();
    }
    --depth_;
    return ok;
  }

  bool Object() {
    ++i_;
    SkipWs();
    if (Eat('}')) return true;
    do {
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != '"' || !String()) return false;
      SkipWs();
      if (!Eat(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
    } while (Eat(','));
    return Eat('}');
  }

  bool Array() {
    ++i_;
    SkipWs();
    if (Eat(']')) return true;
    do {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
    } while (Eat(','));
    return Eat(']');
  }

  bool String() {
    ++i_;
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          if (i_ >= s_.size() || !std::isxdigit(
                                     static_cast<unsigned char>(s_[i_++]))) {
            return false;
          }
        }
      } else if (std::strchr("\"\\/bfnrt", e) == nullptr || e == '\0') {
        return false;
      }
    }
    return false;
  }

  bool Number() {
    Eat('-');
    if (Eat('0')) {
    } else if (!Digits()) {
      return false;
    }
    if (Eat('.') && !Digits()) return false;
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (!Eat('+')) Eat('-');
      if (!Digits()) return false;
    }
    return true;
  }

  bool Digits() {
    const size_t start = i_;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return i_ > start;
  }

  bool Literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  bool Eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]) != nullptr &&
           s_[i_] != '\0') {
      ++i_;
    }
  }

  std::string_view s_;
  size_t i_ = 0;
  int depth_ = 0;
};

/// True iff `s` is exactly one well-formed JSON value.
inline bool IsValidJson(std::string_view s) { return JsonChecker(s).Valid(); }

}  // namespace testing_util
}  // namespace mrs

#endif  // MRS_TESTS_JSON_CHECK_H_
