#include "json_check.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

namespace perfbench {

namespace {

constexpr int kMaxDepth = 64;

/// A one-pass pull parser: each call consumes one construct and checks
/// its grammar; callers descend only into the members they inspect.
class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  bool Fail(const char* why) {
    if (error_.empty()) error_ = std::string(why) + " at byte " + std::to_string(pos_);
    return false;
  }
  const std::string& error() const { return error_; }

  void Ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char Peek() {
    Ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  bool AtEnd() {
    Ws();
    return pos_ == s_.size() || Fail("trailing bytes");
  }

  /// Any value, validated and discarded.
  bool Skip(int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    const char c = Peek();
    if (c == '{') {
      return Object(depth, [&](std::string_view) { return Skip(depth + 1); });
    }
    if (c == '[') return Array(depth, [&] { return Skip(depth + 1); });
    if (c == '"') return String(nullptr);
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number(nullptr);
  }

  /// An object; `member(key)` must consume the member's value.
  template <typename F>
  bool Object(int depth, F member) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (Peek() != '{') return Fail("expected object");
    ++pos_;
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    std::string key;
    for (;;) {
      if (Peek() != '"') return Fail("expected key");
      key.clear();
      if (!String(&key)) return false;
      if (Peek() != ':') return Fail("expected ':'");
      ++pos_;
      if (!member(std::string_view(key))) return false;
      const char c = Peek();
      ++pos_;
      if (c == ',') continue;
      if (c == '}') return true;
      return Fail("expected ',' or '}'");
    }
  }

  /// An array; `element()` must consume each element.
  template <typename F>
  bool Array(int depth, F element) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (Peek() != '[') return Fail("expected array");
    ++pos_;
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!element()) return false;
      const char c = Peek();
      ++pos_;
      if (c == ',') continue;
      if (c == ']') return true;
      return Fail("expected ',' or ']'");
    }
  }

  /// A string; its unescaped content goes to `out` unless null (\u
  /// escapes are validated but not decoded).
  bool String(std::string* out) {
    if (Peek() != '"') return Fail("expected string");
    ++pos_;
    for (;;) {
      if (pos_ >= s_.size()) return Fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      }
      if (c != '\\') {
        if (out != nullptr) out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return Fail("unterminated escape");
      const char e = s_[pos_++];
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_) {
          if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
            return Fail("bad \\u escape");
          }
        }
        if (out != nullptr) out->push_back('?');
        continue;
      }
      static constexpr std::string_view kEscapes = "\"\\/bfnrt";
      static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
      const size_t k = kEscapes.find(e);
      if (k == std::string_view::npos) return Fail("bad escape");
      if (out != nullptr) out->push_back(kDecoded[k]);
    }
  }

  /// A number per the JSON grammar (so no nan/inf), finite as a double.
  /// Its value goes to `out` unless null.
  bool Number(double* out) {
    Ws();
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ >= s_.size()) return Fail("bad number");
    const size_t int_start = pos_;
    if (s_[pos_] == '0') {
      ++pos_;
    } else if (!Digits()) {
      return Fail("bad number");
    }
    const size_t int_digits = pos_ - int_start;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!Digits()) return Fail("bad fraction");
    }
    bool exponent = false;
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      exponent = true;
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!Digits()) return Fail("bad exponent");
    }
    // Without an exponent, up to 308 integer digits is always finite; the
    // checker skips thousands of numbers per response, so only values it
    // reads or that could overflow are converted.
    if (out == nullptr && !exponent && int_digits <= 308) return true;
    double ignored = 0.0;
    if (out == nullptr) out = &ignored;
    char buf[64];
    const size_t len = pos_ - start;
    if (len >= sizeof(buf)) return Fail("number too long");
    s_.copy(buf, len, start);
    buf[len] = '\0';
    *out = std::strtod(buf, nullptr);
    return std::isfinite(*out) || Fail("number out of range");
  }

 private:
  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }
  bool Digits() {
    const size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ValidateJson(std::string_view text, std::string* error) {
  Reader r(text);
  if (r.Skip(0) && r.AtEnd()) return true;
  *error = r.error();
  return false;
}

bool CheckScheduleResponse(std::string_view payload, int num_sites,
                           ResponseInfo* info, std::string* error) {
  Reader r(payload);
  std::string status;
  double id = -1.0;
  double response_ms = -1.0;
  size_t phases = 0;
  size_t clones = 0;
  std::string bad;  // first semantic failure

  auto site_entry = [&] {
    double site = -1.0;
    size_t here = 0;
    const bool ok = r.Object(6, [&](std::string_view key) {
      if (key == "site") return r.Number(&site);
      if (key == "clones") {
        return r.Array(7, [&] {
          ++here;
          return r.Skip(8);
        });
      }
      return r.Skip(7);
    });
    if (ok && here > 0 &&
        (site < 0 || site >= num_sites || site != std::floor(site)) &&
        bad.empty()) {
      bad = "clone placed on site " + std::to_string(site);
    }
    clones += here;
    return ok;
  };
  auto phase_entry = [&] {
    ++phases;
    bool has_sites = false;
    double declared = -1.0;
    const bool ok = r.Object(3, [&](std::string_view key) {
      if (key != "schedule") return r.Skip(4);
      return r.Object(4, [&](std::string_view k) {
        if (k == "num_sites") return r.Number(&declared);
        if (k == "sites") {
          has_sites = true;
          return r.Array(5, site_entry);
        }
        return r.Skip(5);
      });
    });
    if (ok && (!has_sites || declared != num_sites) && bad.empty()) {
      bad = "phase schedule is not on " + std::to_string(num_sites) + " sites";
    }
    return ok;
  };
  const bool parsed =
      r.Object(0, [&](std::string_view key) {
        if (key == "status") return r.String(&status);
        if (key == "id") return r.Number(&id);
        if (key == "response_ms") return r.Number(&response_ms);
        if (key == "schedule") {
          return r.Object(1, [&](std::string_view k) {
            if (k == "phases") return r.Array(2, phase_entry);
            return r.Skip(2);
          });
        }
        return r.Skip(1);
      }) &&
      r.AtEnd();
  if (!parsed) {
    *error = "invalid JSON: " + r.error();
    return false;
  }
  if (status != "ok") {
    *error = "status is not ok: " +
             std::string(payload.substr(0, std::min<size_t>(payload.size(), 160)));
    return false;
  }
  if (!bad.empty()) {
    *error = bad;
    return false;
  }
  if (id < 0 || response_ms < 0 || phases == 0 || clones == 0) {
    *error = "response lacks id, response_ms, phases or clones";
    return false;
  }
  info->id = static_cast<long long>(id);
  info->response_ms = response_ms;
  info->clones = clones;
  return true;
}

}  // namespace perfbench
