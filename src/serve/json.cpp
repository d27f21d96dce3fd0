#include "serve/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace syscomm::serve {

JsonValue
JsonValue::boolean(bool v)
{
    JsonValue out;
    out.kind_ = Kind::kBool;
    out.bool_ = v;
    return out;
}

JsonValue
JsonValue::number(double v)
{
    JsonValue out;
    out.kind_ = Kind::kNumber;
    out.num_ = v;
    return out;
}

JsonValue
JsonValue::integer(std::int64_t v)
{
    JsonValue out;
    out.kind_ = Kind::kNumber;
    out.integral_ = true;
    out.int_ = v;
    return out;
}

JsonValue
JsonValue::str(std::string v)
{
    JsonValue out;
    out.kind_ = Kind::kString;
    out.string_ = std::move(v);
    return out;
}

JsonValue
JsonValue::array()
{
    JsonValue out;
    out.kind_ = Kind::kArray;
    return out;
}

JsonValue
JsonValue::object()
{
    JsonValue out;
    out.kind_ = Kind::kObject;
    return out;
}

JsonValue
JsonValue::verbatim(std::string json)
{
    JsonValue out;
    out.kind_ = Kind::kVerbatim;
    out.string_ = std::move(json);
    return out;
}

std::int64_t
JsonValue::asInt64() const
{
    if (integral_)
        return int_;
    // Casting a double outside int64's range (or NaN) to int64 is
    // undefined behaviour, so clamp before the cast.
    constexpr double kTwo63 = 9223372036854775808.0;
    if (std::isnan(num_))
        return 0;
    if (num_ >= kTwo63)
        return std::numeric_limits<std::int64_t>::max();
    if (num_ < -kTwo63)
        return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(num_);
}

JsonValue&
JsonValue::push(JsonValue v)
{
    if (kind_ == Kind::kNull)
        kind_ = Kind::kArray;
    items_.push_back(std::move(v));
    return *this;
}

JsonValue&
JsonValue::set(std::string key, JsonValue v)
{
    if (kind_ == Kind::kNull)
        kind_ = Kind::kObject;
    for (auto& member : members_) {
        if (member.first == key) {
            member.second = std::move(v);
            return *this;
        }
    }
    members_.emplace_back(std::move(key), std::move(v));
    return *this;
}

const JsonValue*
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::kObject)
        return nullptr;
    for (const auto& member : members_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

bool
JsonValue::getBool(std::string_view key, bool def) const
{
    const JsonValue* v = find(key);
    return (v != nullptr && v->isBool()) ? v->asBool() : def;
}

std::int64_t
JsonValue::getInt(std::string_view key, std::int64_t def) const
{
    const JsonValue* v = find(key);
    return (v != nullptr && v->isIntegral()) ? v->asInt64() : def;
}

double
JsonValue::getNumber(std::string_view key, double def) const
{
    const JsonValue* v = find(key);
    return (v != nullptr && v->isNumber()) ? v->asDouble() : def;
}

std::string
JsonValue::getString(std::string_view key, const std::string& def) const
{
    const JsonValue* v = find(key);
    return (v != nullptr && v->isString()) ? v->asString() : def;
}

namespace {

/** Recursive-descent parser over a bounded string_view. */
class Parser
{
  public:
    Parser(std::string_view text, const JsonParseOptions& options,
           std::string_view rawKey = {}, std::string_view* raw = nullptr)
        : text_(text), options_(options), rawKey_(rawKey), raw_(raw)
    {
    }

    bool parse(JsonValue& out, std::string& error)
    {
        skipSpace();
        if (!parseValue(out, 0))
            goto fail;
        skipSpace();
        if (pos_ != text_.size()) {
            error_ = "trailing garbage";
            goto fail;
        }
        return true;
      fail:
        error = error_ + " at byte " + std::to_string(pos_);
        out = JsonValue();
        return false;
    }

  private:
    bool fail(const char* message)
    {
        if (error_.empty())
            error_ = message;
        return false;
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void skipSpace()
    {
        while (!atEnd()) {
            char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("invalid literal");
        pos_ += word.size();
        return true;
    }

    bool parseValue(JsonValue& out, std::size_t depth)
    {
        if (depth > options_.maxDepth)
            return fail("nesting too deep");
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek()) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = JsonValue::str(std::move(s));
            return true;
          }
          case 't':
            out = JsonValue::boolean(true);
            return literal("true");
          case 'f':
            out = JsonValue::boolean(false);
            return literal("false");
          case 'n':
            out = JsonValue();
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool parseObject(JsonValue& out, std::size_t depth)
    {
        ++pos_; // '{'
        out = JsonValue::object();
        skipSpace();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            if (atEnd() || peek() != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (atEnd() || peek() != ':')
                return fail("expected ':'");
            ++pos_;
            skipSpace();
            const std::size_t valueAt = pos_;
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            if (raw_ != nullptr && depth == 0 && key == rawKey_)
                *raw_ = text_.substr(valueAt, pos_ - valueAt);
            // Duplicate keys: last one wins, like every other parser.
            out.set(std::move(key), std::move(value));
            skipSpace();
            if (atEnd())
                return fail("unterminated object");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool parseArray(JsonValue& out, std::size_t depth)
    {
        ++pos_; // '['
        out = JsonValue::array();
        skipSpace();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.items().push_back(std::move(value));
            skipSpace();
            if (atEnd())
                return fail("unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool parseString(std::string& out)
    {
        ++pos_; // '"'
        out.clear();
        while (!atEnd()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (atEnd())
                return fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"':
                out.push_back('"');
                break;
              case '\\':
                out.push_back('\\');
                break;
              case '/':
                out.push_back('/');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                unsigned code = 0;
                if (!parseHex4(code))
                    return false;
                appendUtf8(out, code);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool parseHex4(unsigned& out)
    {
        out = 0;
        for (int i = 0; i < 4; ++i) {
            if (atEnd())
                return fail("truncated \\u escape");
            char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= unsigned(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= unsigned(c - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        return true;
    }

    /** BMP-only (surrogate pairs come out as two 3-byte sequences —
     *  acceptable for a protocol whose strings are ASCII in practice). */
    static void appendUtf8(std::string& out, unsigned code)
    {
        if (code < 0x80) {
            out.push_back(char(code));
        } else if (code < 0x800) {
            out.push_back(char(0xc0 | (code >> 6)));
            out.push_back(char(0x80 | (code & 0x3f)));
        } else {
            out.push_back(char(0xe0 | (code >> 12)));
            out.push_back(char(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(char(0x80 | (code & 0x3f)));
        }
    }

    bool parseNumber(JsonValue& out)
    {
        std::size_t start = pos_;
        bool integral = true;
        if (!atEnd() && peek() == '-')
            ++pos_;
        if (atEnd() || peek() < '0' || peek() > '9')
            return fail("invalid number");
        while (!atEnd() && peek() >= '0' && peek() <= '9')
            ++pos_;
        if (!atEnd() && peek() == '.') {
            integral = false;
            ++pos_;
            if (atEnd() || peek() < '0' || peek() > '9')
                return fail("invalid number");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            integral = false;
            ++pos_;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (atEnd() || peek() < '0' || peek() > '9')
                return fail("invalid number");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        std::string token(text_.substr(start, pos_ - start));
        if (integral) {
            errno = 0;
            char* end = nullptr;
            long long v = std::strtoll(token.c_str(), &end, 10);
            if (errno == 0 && end == token.c_str() + token.size()) {
                out = JsonValue::integer(v);
                return true;
            }
            // Out of int64 range: fall back to double like the spec
            // allows (precision loss is on the sender).
        }
        char* end = nullptr;
        double d = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("invalid number");
        out = JsonValue::number(d);
        return true;
    }

    std::string_view text_;
    JsonParseOptions options_;
    std::string_view rawKey_;
    std::string_view* raw_;
    std::size_t pos_ = 0;
    std::string error_;
};

void
writeString(std::string& out, const std::string& s)
{
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              unsigned(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
writeValue(std::string& out, const JsonValue& v)
{
    switch (v.kind()) {
      case JsonValue::Kind::kNull:
        out += "null";
        break;
      case JsonValue::Kind::kBool:
        out += v.asBool() ? "true" : "false";
        break;
      case JsonValue::Kind::kNumber:
        if (v.isIntegral()) {
            out += std::to_string(v.asInt64());
        } else {
            double d = v.asDouble();
            if (std::isnan(d) || std::isinf(d)) {
                out += "null"; // JSON has no NaN/Inf
            } else {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%.17g", d);
                out += buf;
            }
        }
        break;
      case JsonValue::Kind::kString:
        writeString(out, v.asString());
        break;
      case JsonValue::Kind::kVerbatim:
        out += v.asString();
        break;
      case JsonValue::Kind::kArray: {
        out.push_back('[');
        bool first = true;
        for (const auto& item : v.items()) {
            if (!first)
                out.push_back(',');
            first = false;
            writeValue(out, item);
        }
        out.push_back(']');
        break;
      }
      case JsonValue::Kind::kObject: {
        out.push_back('{');
        bool first = true;
        for (const auto& member : v.members()) {
            if (!first)
                out.push_back(',');
            first = false;
            writeString(out, member.first);
            out.push_back(':');
            writeValue(out, member.second);
        }
        out.push_back('}');
        break;
      }
    }
}

} // namespace

bool
parseJson(std::string_view text, JsonValue& out, std::string& error,
          const JsonParseOptions& options)
{
    Parser parser(text, options);
    return parser.parse(out, error);
}

bool
parseJson(std::string_view text, std::string_view key, std::string_view& raw,
          JsonValue& out, std::string& error)
{
    raw = {};
    if (Parser(text, {}, key, &raw).parse(out, error))
        return true;
    raw = {};
    return false;
}

std::string
writeJson(const JsonValue& value)
{
    std::string out;
    writeValue(out, value);
    return out;
}

} // namespace syscomm::serve
