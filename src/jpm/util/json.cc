#include "jpm/util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "jpm/util/check.h"

namespace jpm::util::json {

Value& Object::operator[](const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  entries_.emplace_back(key, Value{});
  return entries_.back().second;
}

const Value* Object::find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const char* Value::kind_name(Kind k) {
  switch (k) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "boolean";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

char* format_number(double d, char* buf) {
  JPM_CHECK_MSG(std::isfinite(d), "JSON cannot represent NaN or infinity");
  char* const end = buf + kMaxNumberChars;
  // Integers within the double-exact range print without an exponent or
  // trailing ".0" — counters stay readable and stable. The digits are
  // printf("%.0f")'s, "-0" included.
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    const auto whole = static_cast<std::int64_t>(d);
    if (whole == 0 && std::signbit(d)) *buf++ = '-';
    const auto res = std::to_chars(buf, end, whole);
    JPM_CHECK(res.ec == std::errc());
    return res.ptr;
  }
  const auto res = std::to_chars(buf, end, d);
  JPM_CHECK(res.ec == std::errc());
  return res.ptr;
}

std::string format_number(double d) {
  char buf[kMaxNumberChars];
  return std::string(buf, format_number(d, buf));
}

namespace {

void append_escaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void dump_to(const Value& v, int indent, int depth, std::string* out) {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out->push_back('\n');
    out->append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.kind()) {
    case Value::Kind::kNull: *out += "null"; break;
    case Value::Kind::kBool: *out += v.as_bool() ? "true" : "false"; break;
    case Value::Kind::kNumber: *out += format_number(v.as_number()); break;
    case Value::Kind::kString: append_escaped(v.as_string(), out); break;
    case Value::Kind::kArray: {
      const auto& a = v.as_array();
      if (a.empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) out->push_back(',');
        newline_pad(depth + 1);
        dump_to(a[i], indent, depth + 1, out);
      }
      newline_pad(depth);
      out->push_back(']');
      break;
    }
    case Value::Kind::kObject: {
      const auto& o = v.as_object();
      if (o.size() == 0) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [k, val] : o.entries()) {
        if (!first) out->push_back(',');
        first = false;
        newline_pad(depth + 1);
        append_escaped(k, out);
        *out += pretty ? ": " : ":";
        dump_to(val, indent, depth + 1, out);
      }
      newline_pad(depth);
      out->push_back('}');
      break;
    }
  }
}

// ---- parser ---------------------------------------------------------------

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& why) {
    if (error.empty()) {
      error = why + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_literal(const char* lit, Value v, Value* out) {
    for (const char* p = lit; *p; ++p, ++pos) {
      if (pos >= text.size() || text[pos] != *p) {
        return fail(std::string("bad literal, expected ") + lit);
      }
    }
    *out = std::move(v);
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    std::string s;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) return fail("unterminated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': s.push_back('"'); break;
          case '\\': s.push_back('\\'); break;
          case '/': s.push_back('/'); break;
          case 'n': s.push_back('\n'); break;
          case 't': s.push_back('\t'); break;
          case 'r': s.push_back('\r'); break;
          case 'b': s.push_back('\b'); break;
          case 'f': s.push_back('\f'); break;
          case 'u': {
            // Pass the escape through verbatim; the telemetry reports only
            // contain ASCII, so decoding is unnecessary.
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            s += "\\u" + text.substr(pos, 4);
            pos += 4;
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        s.push_back(c);
      }
    }
    if (!consume('"')) return fail("unterminated string");
    *out = std::move(s);
    return true;
  }

  bool parse_value(Value* out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == 'n') return parse_literal("null", Value{}, out);
    if (c == 't') return parse_literal("true", Value{true}, out);
    if (c == 'f') return parse_literal("false", Value{false}, out);
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = Value{std::move(s)};
      return true;
    }
    if (c == '[') {
      ++pos;
      Array a;
      skip_ws();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        *out = Value{std::move(a)};
        return true;
      }
      while (true) {
        Value v;
        if (!parse_value(&v)) return false;
        a.push_back(std::move(v));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        break;
      }
      if (!consume(']')) return false;
      *out = Value{std::move(a)};
      return true;
    }
    if (c == '{') {
      ++pos;
      Object o;
      skip_ws();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        *out = Value{std::move(o)};
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (!consume(':')) return false;
        Value v;
        if (!parse_value(&v)) return false;
        o[key] = std::move(v);
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        break;
      }
      if (!consume('}')) return false;
      *out = Value{std::move(o)};
      return true;
    }
    // Number.
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return fail("unexpected character");
    const std::string num = text.substr(start, pos - start);
    char* end = nullptr;
    const double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return fail("malformed number");
    *out = Value{d};
    return true;
  }
};

}  // namespace

std::string dump(const Value& v, int indent) {
  std::string out;
  dump_to(v, indent, 0, &out);
  return out;
}

bool parse(const std::string& text, Value* out, std::string* error) {
  Parser p{text, 0, {}};
  if (!p.parse_value(out)) {
    if (error) *error = p.error;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error) {
      *error = "trailing characters at byte " + std::to_string(p.pos);
    }
    return false;
  }
  return true;
}

}  // namespace jpm::util::json
