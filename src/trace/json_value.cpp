#include "trace/json_value.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace cooprt::trace {

/** Hand-rolled recursive-descent parser over a string_view. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue
    run(std::string *error)
    {
        JsonValue v = parseValue();
        if (v.valid()) {
            skipWs();
            if (pos_ != text_.size())
                fail("trailing garbage after document");
        }
        if (!error_.empty()) {
            if (error != nullptr)
                *error = error_;
            return JsonValue{};
        }
        return v;
    }

  private:
    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;

    /** Deep documents are malformed input, not a stack overflow. */
    static constexpr int kMaxDepth = 64;

    void
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = "offset " + std::to_string(pos_) + ": " + what;
    }

    bool done() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skipWs()
    {
        while (!done()) {
            const char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (done() || peek() != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    consumeWord(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        if (done()) {
            fail("unexpected end of input");
            return {};
        }
        if (++depth_ > kMaxDepth) {
            fail("nesting deeper than 64 levels");
            --depth_;
            return {};
        }
        JsonValue v;
        const char c = peek();
        if (c == '{')
            v = parseObject();
        else if (c == '[')
            v = parseArray();
        else if (c == '"')
            v = parseString();
        else if (c == '-' || (c >= '0' && c <= '9'))
            v = parseNumber();
        else if (consumeWord("true")) {
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = true;
        } else if (consumeWord("false")) {
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = false;
        } else if (consumeWord("null")) {
            v.kind_ = JsonValue::Kind::Null;
        } else {
            fail("unexpected character '" + std::string(1, c) + "'");
        }
        --depth_;
        return v;
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        ++pos_; // '{'
        v.kind_ = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return v;
        for (;;) {
            skipWs();
            if (done() || peek() != '"') {
                fail("expected object key");
                return {};
            }
            JsonValue key = parseString();
            if (!key.valid())
                return {};
            skipWs();
            if (!consume(':')) {
                fail("expected ':' after object key");
                return {};
            }
            JsonValue member = parseValue();
            if (!member.valid())
                return {};
            v.members_.emplace_back(std::move(key.string_),
                                    std::move(member));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return v;
            fail("expected ',' or '}' in object");
            return {};
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        ++pos_; // '['
        v.kind_ = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return v;
        for (;;) {
            JsonValue element = parseValue();
            if (!element.valid())
                return {};
            v.array_.push_back(std::move(element));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return v;
            fail("expected ',' or ']' in array");
            return {};
        }
    }

    JsonValue
    parseString()
    {
        JsonValue v;
        ++pos_; // '"'
        std::string out;
        while (!done()) {
            const char c = text_[pos_++];
            if (c == '"') {
                v.kind_ = JsonValue::Kind::String;
                v.string_ = std::move(out);
                return v;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
                return {};
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (done()) {
                fail("unterminated escape");
                return {};
            }
            const char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return {};
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else {
                        fail("bad \\u escape digit");
                        return {};
                    }
                }
                // UTF-8 encode the BMP code point. The repository's
                // own writer only ever emits \u00XX control escapes;
                // surrogate pairs are out of scope.
                if (code < 0x80) {
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xc0 | (code >> 6));
                    out += char(0x80 | (code & 0x3f));
                } else {
                    out += char(0xe0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3f));
                    out += char(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("unknown escape '\\" + std::string(1, e) + "'");
                return {};
            }
        }
        fail("unterminated string");
        return {};
    }

    /** One or more digits; false (nothing consumed) when none. */
    bool
    digits()
    {
        const std::size_t start = pos_;
        while (!done() && peek() >= '0' && peek() <= '9')
            ++pos_;
        return pos_ > start;
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        consume('-');
        // RFC 8259: "0" or a non-zero digit first, so no leading
        // zeros; digits are required after '-', '.' and 'e'.
        if (consume('0')) {
            if (!done() && peek() >= '0' && peek() <= '9') {
                fail("leading zero in number");
                return {};
            }
        } else if (!digits()) {
            fail("expected a digit");
            return {};
        }
        bool integral = true;
        if (consume('.')) {
            integral = false;
            if (!digits()) {
                fail("expected a digit after '.'");
                return {};
            }
        }
        if (!done() && (peek() == 'e' || peek() == 'E')) {
            integral = false;
            ++pos_;
            if (!done() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (!digits()) {
                fail("expected a digit in exponent");
                return {};
            }
        }
        const std::string token(text_.substr(start, pos_ - start));
        JsonValue v;
        if (integral) {
            errno = 0;
            const long long parsed =
                std::strtoll(token.c_str(), nullptr, 10);
            if (errno == 0) {
                v.kind_ = JsonValue::Kind::Int;
                v.int_ = parsed;
                return v;
            }
            // Out of int64 range (e.g. a uint64 checksum emitted as
            // a bare number): degrade to double, like JS readers do.
        }
        v.kind_ = JsonValue::Kind::Double;
        v.double_ = std::strtod(token.c_str(), nullptr);
        return v;
    }
};

JsonValue
JsonValue::parse(std::string_view text, std::string *error)
{
    return JsonParser(text).run(error);
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const Member &m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

std::int64_t
JsonValue::getInt(std::string_view key, std::int64_t fallback) const
{
    const JsonValue *v = find(key);
    return (v != nullptr && v->isNumber()) ? v->intValue() : fallback;
}

double
JsonValue::getDouble(std::string_view key, double fallback) const
{
    const JsonValue *v = find(key);
    return (v != nullptr && v->isNumber()) ? v->numberValue()
                                           : fallback;
}

std::string
JsonValue::getString(std::string_view key,
                     const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return (v != nullptr && v->isString()) ? v->stringValue()
                                           : fallback;
}

bool
JsonValue::getBool(std::string_view key, bool fallback) const
{
    const JsonValue *v = find(key);
    return (v != nullptr && v->isBool()) ? v->boolValue() : fallback;
}

} // namespace cooprt::trace
