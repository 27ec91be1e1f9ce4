#include "trace/json.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>

namespace cooprt::trace {

std::string
escapeJson(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
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
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
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
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
quoteJson(std::string_view s)
{
    std::string out = "\"";
    out += escapeJson(s);
    out += '"';
    return out;
}

void
JsonWriter::writeDouble(double value)
{
    char buf[32]; // the longest shortest-form double is 24 chars
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), value);
    os_.write(buf, r.ptr - buf);
}

void
writeSchemaVersion(JsonWriter &w)
{
    w.field("schema_version", kSchemaVersion);
}

void
writeRunKey(JsonWriter &w, const RunKeyFields &key)
{
    w.open("run_key");
    w.field("scene", key.scene);
    w.field("shader", key.shader);
    w.field("resolution", key.resolution);
    w.field("fingerprint", key.fingerprint);
    w.close();
}

std::string
runKeyJson(const RunKeyFields &key)
{
    std::ostringstream ss;
    JsonWriter w(ss);
    w.open();
    w.field("scene", key.scene);
    w.field("shader", key.shader);
    w.field("resolution", key.resolution);
    w.field("fingerprint", key.fingerprint);
    w.close();
    return ss.str();
}

std::string
runKeyCsvComment(const RunKeyFields &key)
{
    std::string out = "# cooprt schema_version=";
    out += std::to_string(kSchemaVersion);
    out += " scene=" + key.scene;
    out += " shader=" + key.shader;
    out += " resolution=" + std::to_string(key.resolution);
    out += " fingerprint=" + key.fingerprint;
    out += '\n';
    return out;
}

} // namespace cooprt::trace
