#pragma once

/**
 * @file
 * Minimal JSON values for the syscommd wire protocol (serve/).
 *
 * The daemon speaks newline-delimited JSON; this is the small,
 * dependency-free value type both ends parse into and render from.
 * Scope is deliberately narrow: UTF-8 pass-through (no surrogate
 * validation), numbers as int64 when the token is integral (seeds and
 * cycle counts must round-trip exactly) and double otherwise, objects
 * as insertion-ordered member vectors (responses render in a stable
 * order, and the linear find is fine at protocol-object sizes).
 * Parsing is defensive, never trusting the peer: depth-limited,
 * length-checked, and every failure is a clean error string — a
 * malformed or truncated line must never take the daemon down.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace syscomm::serve {

class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        kNull = 0,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
        /** JSON text that writeJson copies unchanged (verbatim()). */
        kVerbatim,
    };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default; ///< null

    static JsonValue boolean(bool v);
    static JsonValue number(double v);
    static JsonValue integer(std::int64_t v);
    static JsonValue str(std::string v);
    static JsonValue array();
    static JsonValue object();
    /**
     * Already-rendered JSON text that writeJson copies unchanged: how
     * the daemon splices a finished submission's kept result into a
     * response. The caller vouches that @p json is one well-formed
     * JSON value; parseJson never makes this kind, and the accessors
     * see it as an opaque leaf (asString() is the text).
     */
    static JsonValue verbatim(std::string json);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::kNull; }
    bool isBool() const { return kind_ == Kind::kBool; }
    bool isNumber() const { return kind_ == Kind::kNumber; }
    bool isString() const { return kind_ == Kind::kString; }
    bool isArray() const { return kind_ == Kind::kArray; }
    bool isObject() const { return kind_ == Kind::kObject; }

    bool asBool() const { return bool_; }
    double asDouble() const { return integral_ ? double(int_) : num_; }
    /**
     * Exact for an integral number. A fraction or exponent number is
     * truncated toward zero and clamped to the int64 range (NaN is
     * 0), so every value has one; anything else is 0.
     */
    std::int64_t asInt64() const;
    /** Was the number written without fraction/exponent? */
    bool isIntegral() const { return kind_ == Kind::kNumber && integral_; }
    const std::string& asString() const { return string_; }

    std::vector<JsonValue>& items() { return items_; }
    const std::vector<JsonValue>& items() const { return items_; }
    std::vector<Member>& members() { return members_; }
    const std::vector<Member>& members() const { return members_; }

    /** Append to an array (coerces a null to an array first). */
    JsonValue& push(JsonValue v);

    /**
     * Set a member on an object (coerces a null to an object first;
     * replaces an existing key, else appends). Returns *this so
     * response-building chains.
     */
    JsonValue& set(std::string key, JsonValue v);

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue* find(std::string_view key) const;

    // Typed member getters with defaults. A present-but-wrong-typed
    // member returns the default like an absent one; strict checks
    // live in the protocol parser where the error message can say
    // which field.
    bool getBool(std::string_view key, bool def) const;
    /** An integral number's value; @p def for any other member,
     *  fraction or exponent numbers included. */
    std::int64_t getInt(std::string_view key, std::int64_t def) const;
    double getNumber(std::string_view key, double def) const;
    std::string getString(std::string_view key,
                          const std::string& def = "") const;

  private:
    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    bool integral_ = false;
    double num_ = 0.0;
    std::int64_t int_ = 0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

struct JsonParseOptions
{
    /** Nesting limit; protocol objects are ~3 deep. */
    std::size_t maxDepth = 32;
};

/**
 * Parse one JSON document from @p text (surrounding whitespace
 * allowed, trailing garbage is an error). On failure @p error names
 * the problem and byte offset and @p out is left null. The second
 * form also sets @p raw to the top-level member @p key's text as sent
 * (empty when absent or on failure): how a request's "tag" is echoed
 * verbatim, not re-rendered from its parsed value.
 */
bool parseJson(std::string_view text, JsonValue& out, std::string& error,
               const JsonParseOptions& options = {});
bool parseJson(std::string_view text, std::string_view key,
               std::string_view& raw, JsonValue& out, std::string& error);

/** Render compactly on one line (the wire format; no newline added). */
std::string writeJson(const JsonValue& value);

} // namespace syscomm::serve
