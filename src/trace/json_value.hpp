/**
 * @file
 * The repository's one JSON reader: a minimal recursive-descent
 * parser for the documents trace::JsonWriter emits. The diff engine
 * ingests run reports and campaign JSON lines through it, and the
 * tests read every JSON sink back through it.
 *
 * Design points:
 *   - Strict RFC 8259 grammar: no leading zeros, digits required
 *     after '-', '.' and an exponent, no raw control characters in
 *     strings, nothing after the document but whitespace.
 *   - Integers and doubles are distinct kinds. Cycle counts round-
 *     trip through std::int64_t exactly, which is what makes the
 *     bucket-delta conservation check *bit*-exact instead of
 *     within-epsilon (DESIGN.md section 18).
 *   - Object members preserve document order (vector of pairs, not a
 *     map), so anything re-emitted from a parsed document stays
 *     deterministic and diffable.
 *   - No exceptions: parse() returns an Invalid value and fills an
 *     error string with an offset-tagged message.
 */

#ifndef COOPRT_TRACE_JSON_VALUE_HPP
#define COOPRT_TRACE_JSON_VALUE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cooprt::trace {

class JsonValue
{
  public:
    enum class Kind
    {
        Invalid, ///< parse failure (never nested inside a document)
        Null,
        Bool,
        Int,    ///< lexically integral and fits std::int64_t
        Double, ///< fraction/exponent present, or out of Int range
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    /**
     * Parse @p text (one complete JSON document; trailing whitespace
     * allowed, trailing garbage is an error). On failure returns a
     * value of kind Invalid and, when @p error is non-null, fills it
     * with a byte-offset-tagged message.
     */
    static JsonValue parse(std::string_view text,
                           std::string *error = nullptr);

    Kind kind() const { return kind_; }
    bool valid() const { return kind_ != Kind::Invalid; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isInt() const { return kind_ == Kind::Int; }
    bool isDouble() const { return kind_ == Kind::Double; }
    /** Int or Double. */
    bool isNumber() const { return isInt() || isDouble(); }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolValue() const { return bool_; }
    /** Exact value for Int kind; truncates for Double kind. */
    std::int64_t intValue() const
    { return kind_ == Kind::Double ? std::int64_t(double_) : int_; }
    /** Numeric value widened to double for either numeric kind. */
    double numberValue() const
    { return kind_ == Kind::Int ? double(int_) : double_; }
    const std::string &stringValue() const { return string_; }

    const std::vector<JsonValue> &array() const { return array_; }
    const std::vector<Member> &members() const { return members_; }

    std::size_t size() const
    { return isArray() ? array_.size() : members_.size(); }

    /** Object member by key; null pointer when absent / not an
     *  object (so lookups chain without intermediate checks). */
    const JsonValue *find(std::string_view key) const;

    /* -- typed convenience lookups (defaulted when absent) -------- */
    std::int64_t getInt(std::string_view key,
                        std::int64_t fallback = 0) const;
    double getDouble(std::string_view key,
                     double fallback = 0.0) const;
    std::string getString(std::string_view key,
                          const std::string &fallback = {}) const;
    bool getBool(std::string_view key, bool fallback = false) const;

  private:
    Kind kind_ = Kind::Invalid;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<Member> members_;

    friend class JsonParser;
};

} // namespace cooprt::trace

#endif // COOPRT_TRACE_JSON_VALUE_HPP
