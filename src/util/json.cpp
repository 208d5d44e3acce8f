#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace rdt::json {

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw std::invalid_argument(std::string("json: value is not ") + wanted);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  // Deep enough for any rdt-bench-v2 / rdt-trace-v1 document, shallow
  // enough that adversarial input cannot overflow the call stack.
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }

  void expect(char c) {
    if (eof() || peek() != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (!eof() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      fail("invalid literal");
    pos_ += word.size();
  }

  Value value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    if (eof()) fail("unexpected end of input");
    Value out;
    switch (peek()) {
      case '{': out = object(); break;
      case '[': out = array(); break;
      case '"': out = Value(string()); break;
      case 't': literal("true"); out = Value(true); break;
      case 'f': literal("false"); out = Value(false); break;
      case 'n': literal("null"); out = Value(); break;
      default: out = number(); break;
    }
    --depth_;
    return out;
  }

  Value object() {
    expect('{');
    Object members;
    skip_ws();
    if (consume('}')) return Value(std::move(members));
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key");
      std::string key = string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return Value(std::move(members));
    }
  }

  Value array() {
    expect('[');
    Array items;
    skip_ws();
    if (consume(']')) return Value(std::move(items));
    while (true) {
      items.push_back(value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return Value(std::move(items));
    }
  }

  unsigned hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("truncated \\u escape");
      const char c = peek();
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
      ++pos_;
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("truncated escape");
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {  // high surrogate: need a pair
            if (!consume('\\') || !consume('u')) fail("unpaired surrogate");
            const unsigned lo = hex4();
            if (lo < 0xdc00 || lo > 0xdfff) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    consume('-');
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      ++pos_;  // a leading zero stands alone (RFC 8259)
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    bool integral = true;
    if (consume('.')) {
      integral = false;
      if (eof() || peek() < '0' || peek() > '9') fail("digits required after '.'");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("digits required in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      long long i = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), i);
      if (ec == std::errc() && ptr == token.data() + token.size())
        return Value(i);
      // Magnitude overflow: fall through to double like other parsers do.
    }
    const std::string copy(token);  // strtod needs a terminator
    char* end = nullptr;
    const double d = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) fail("invalid number");
    // dump() writes a non-finite double as null, so an overflowing literal
    // could not round-trip; underflow to zero or a subnormal is kept.
    if (std::isinf(d)) fail("number out of range");
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) kind_error("a bool");
  return std::get<bool>(v_);
}

long long Value::as_int() const {
  if (!is_int()) kind_error("an integer");
  return std::get<long long>(v_);
}

double Value::as_double() const {
  if (is_int()) return static_cast<double>(std::get<long long>(v_));
  if (!is_double()) kind_error("a number");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) kind_error("a string");
  return std::get<std::string>(v_);
}

const Array& Value::as_array() const {
  if (!is_array()) kind_error("an array");
  return std::get<Array>(v_);
}

const Object& Value::as_object() const {
  if (!is_object()) kind_error("an object");
  return std::get<Object>(v_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const Member& m : std::get<Object>(v_))
    if (m.first == key) return &m.second;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr)
    throw std::invalid_argument("json: missing member '" + std::string(key) +
                                "'");
  return *v;
}

namespace {

void dump_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (c == '\n') {
      os << "\\n";
    } else if (c == '\t') {
      os << "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u00" << "0123456789abcdef"[c >> 4] << "0123456789abcdef"[c & 0xf];
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

void Value::dump(std::ostream& os) const {
  switch (kind()) {
    case Kind::kNull: os << "null"; return;
    case Kind::kBool: os << (std::get<bool>(v_) ? "true" : "false"); return;
    case Kind::kInt: os << std::get<long long>(v_); return;
    case Kind::kDouble: {
      // A local stream, so the caller's precision and flags are untouched.
      const double d = std::get<double>(v_);
      std::ostringstream tmp;
      tmp << std::setprecision(std::numeric_limits<double>::max_digits10) << d;
      os << (std::isfinite(d) ? tmp.str() : "null");
      return;
    }
    case Kind::kString: dump_string(os, std::get<std::string>(v_)); return;
    case Kind::kArray: {
      const char* sep = "";
      os << '[';
      for (const Value& item : std::get<Array>(v_)) {
        os << std::exchange(sep, ",");
        item.dump(os);
      }
      os << ']';
      return;
    }
    case Kind::kObject: {
      const char* sep = "";
      os << '{';
      for (const auto& [key, value] : std::get<Object>(v_)) {
        os << std::exchange(sep, ",");
        dump_string(os, key);
        os << ':';
        value.dump(os);
      }
      os << '}';
      return;
    }
  }
}

std::string Value::dump() const {
  std::ostringstream os;
  dump(os);
  return os.str();
}

bool operator==(const Value& a, const Value& b) {
  if (a.is_int() && b.is_double()) return b == a;
  if (a.is_double() && b.is_int()) {
    // Exact: the double must be integral and inside long long's range
    // (-2^63 <= d < 2^63) before it is converted.
    const double d = a.as_double();
    return std::trunc(d) == d && d >= -0x1p63 && d < 0x1p63 &&
           static_cast<long long>(d) == b.as_int();
  }
  return a.v_ == b.v_;
}

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace rdt::json
