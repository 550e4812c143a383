#include "sim/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace contutto
{

Json
Json::number(double v)
{
    if (!std::isfinite(v))
        return makeNull();
    if (v == std::floor(v) && std::abs(v) < 1e15)
        return number(std::int64_t(v));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return parseNumberToken(buf);
}

void
Json::requireKind(Kind k) const
{
    if (kind_ != k)
        throw JsonError("json: wrong value kind");
}

bool
Json::asBool() const
{
    requireKind(Kind::boolean);
    return bool_;
}

std::uint64_t
Json::asU64() const
{
    requireKind(Kind::number);
    // Integral token only: a seed or deadline that arrives as
    // "1.5e3" is a client bug worth surfacing, not truncating.
    if (text_.find_first_of(".eE-") != std::string::npos)
        throw JsonError("json: '" + text_ + "' is not an unsigned integer");
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text_.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        throw JsonError("json: bad unsigned integer '" + text_ + "'");
    return v;
}

std::int64_t
Json::asI64() const
{
    requireKind(Kind::number);
    if (text_.find_first_of(".eE") != std::string::npos)
        throw JsonError("json: '" + text_ + "' is not an integer");
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(text_.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        throw JsonError("json: bad integer '" + text_ + "'");
    return v;
}

double
Json::asDouble() const
{
    requireKind(Kind::number);
    return std::strtod(text_.c_str(), nullptr);
}

const std::string &
Json::asString() const
{
    requireKind(Kind::string);
    return text_;
}

Json &
Json::set(const std::string &key, Json value)
{
    requireKind(Kind::object);
    for (auto &kv : obj_) {
        if (kv.first == key) {
            kv.second = std::move(value);
            return kv.second;
        }
    }
    obj_.emplace_back(key, std::move(value));
    return obj_.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::object)
        return nullptr;
    for (const auto &kv : obj_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *v = find(key);
    if (v == nullptr)
        throw JsonError("json: missing member '" + key + "'");
    return *v;
}

Json &
Json::append(Json value)
{
    requireKind(Kind::array);
    arr_.push_back(std::move(value));
    return arr_.back();
}

std::uint64_t
Json::getU64(const std::string &key, std::uint64_t def) const
{
    const Json *v = find(key);
    return v == nullptr ? def : v->asU64();
}

bool
Json::getBool(const std::string &key, bool def) const
{
    const Json *v = find(key);
    return v == nullptr ? def : v->asBool();
}

std::string
Json::getString(const std::string &key,
                const std::string &def) const
{
    const Json *v = find(key);
    return v == nullptr ? def : v->asString();
}

namespace
{

void
escapeTo(const std::string &s, std::string &out)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            // Control bytes and bytes >= 0x80 both go out as \u00XX
            // (which the parser maps back to the same byte): the
            // writer emits ASCII only, so its output is valid UTF-8
            // JSON whatever opaque bytes a string carries.
            if (static_cast<unsigned char>(c) < 0x20
                || static_cast<unsigned char>(c) >= 0x80) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              unsigned(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

void
Json::dumpTo(std::string &out) const
{
    switch (kind_) {
      case Kind::null:
        out += "null";
        break;
      case Kind::boolean:
        out += bool_ ? "true" : "false";
        break;
      case Kind::number:
        out += text_;
        break;
      case Kind::string:
        escapeTo(text_, out);
        break;
      case Kind::object: {
        out += '{';
        const char *sep = "";
        for (const auto &kv : obj_) {
            out += sep;
            escapeTo(kv.first, out);
            out += ':';
            kv.second.dumpTo(out);
            sep = ",";
        }
        out += '}';
        break;
      }
      case Kind::array: {
        out += '[';
        const char *sep = "";
        for (const Json &v : arr_) {
            out += sep;
            v.dumpTo(out);
            sep = ",";
        }
        out += ']';
        break;
      }
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

namespace
{

/** Recursive-descent parser over a bounded cursor. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    Json
    parseDocument()
    {
        Json v = parseValue(0);
        skipWs();
        if (pos_ != s_.size())
            throw JsonError("json: trailing garbage at byte "
                            + std::to_string(pos_));
        return v;
    }

  private:
    static constexpr unsigned kMaxDepth = 32;

    void
    skipWs()
    {
        while (pos_ < s_.size()
               && (s_[pos_] == ' ' || s_[pos_] == '\t'
                   || s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            throw JsonError("json: unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw JsonError(std::string("json: expected '") + c + "' at byte "
                            + std::to_string(pos_));
        ++pos_;
    }

    bool
    consume(const char *lit)
    {
        std::size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Json
    parseValue(unsigned depth)
    {
        if (depth > kMaxDepth)
            throw JsonError("json: nesting too deep");
        skipWs();
        char c = peek();
        switch (c) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': return Json::string(parseString());
          case 't':
            if (consume("true"))
                return Json::boolean(true);
            break;
          case 'f':
            if (consume("false"))
                return Json::boolean(false);
            break;
          case 'n':
            if (consume("null"))
                return Json::makeNull();
            break;
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
        }
        throw JsonError("json: unexpected character at byte "
                        + std::to_string(pos_));
    }

    Json
    parseObject(unsigned depth)
    {
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            if (obj.find(key) != nullptr)
                throw JsonError("json: duplicate key '" + key + "'");
            obj.set(key, parseValue(depth + 1));
            skipWs();
            char c = peek();
            ++pos_;
            if (c == '}')
                return obj;
            if (c != ',')
                throw JsonError(
                    "json: expected ',' or '}' at byte "
                    + std::to_string(pos_ - 1));
        }
    }

    Json
    parseArray(unsigned depth)
    {
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            arr.append(parseValue(depth + 1));
            skipWs();
            char c = peek();
            ++pos_;
            if (c == ']')
                return arr;
            if (c != ',')
                throw JsonError(
                    "json: expected ',' or ']' at byte "
                    + std::to_string(pos_ - 1));
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                throw JsonError("json: unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                throw JsonError(
                    "json: raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                throw JsonError("json: unterminated escape");
            char e = s_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    throw JsonError("json: short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        throw JsonError(
                            "json: bad \\u escape");
                }
                // The protocol is ASCII + opaque byte strings; only
                // the control range the writer emits is accepted.
                if (code > 0xff)
                    throw JsonError(
                        "json: \\u escape beyond latin-1 "
                        "unsupported");
                out += char(code);
                break;
              }
              default:
                throw JsonError("json: bad escape character");
            }
        }
    }

    Json
    parseNumber()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        auto digits = [&] {
            std::size_t n = 0;
            while (pos_ < s_.size() && std::isdigit(
                       static_cast<unsigned char>(s_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        // RFC 8259: a leading zero stands alone ("01" is not a
        // number, and dump() would echo it back verbatim).
        if (pos_ < s_.size() && s_[pos_] == '0')
            ++pos_;
        else if (digits() == 0)
            throw JsonError("json: bad number");
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                throw JsonError("json: bad number fraction");
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size()
                && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                throw JsonError("json: bad number exponent");
        }
        // Preserve the exact token (see header: u64 round-trip).
        return Json::parseNumberToken(
            s_.substr(start, pos_ - start));
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

Json
Json::parseNumberToken(std::string token)
{
    Json j;
    j.kind_ = Kind::number;
    j.text_ = std::move(token);
    return j;
}

} // namespace contutto
