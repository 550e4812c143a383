/**
 * @file
 * The repository's one JSON value type: every JSON document the
 * simulator reads or writes goes through it — stats-JSON
 * (stats::toJson and the bench --stats-json envelope), Perfetto
 * trace export, interval snapshots, and the campaign service's
 * newline-delimited wire protocol.
 *
 * Both directions are strict and deterministic. The parser accepts
 * only RFC 8259 documents (no leading zeros, no NaN/Infinity) and is
 * stricter still: duplicate keys and \u escapes beyond latin-1 are
 * rejected. Anything else becomes a JsonError, never UB. dump() is
 * a pure function of the value with no whitespace and emits ASCII
 * only (string bytes below 0x20 or from 0x80 up go out as \u00XX,
 * which the parser maps back to the same byte): object members
 * keep insertion order, and a parsed number keeps its exact decimal
 * token (a u64 seed must not detour through a double and come back
 * rounded). So for any text one of our writers produced,
 * parse(text).dump() == text.
 *
 * Number rule for doubles (number(double)): a non-finite value is
 * written as null, since JSON has no inf/nan tokens; an integral
 * value with |v| < 1e15 is written as an exact integer (-0.0 becomes
 * 0); anything else is written with %.17g, which round-trips every
 * finite double.
 *
 * Nesting more than 32 levels below the top-level value is a
 * JsonError ("nesting too deep"), so a hostile "[[[[..." line
 * cannot overflow the stack.
 */

#ifndef CONTUTTO_SIM_JSON_HH
#define CONTUTTO_SIM_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace contutto
{

/** Raised on malformed JSON input (parse or type mismatch). */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One JSON value; a document is a tree of these. */
class Json
{
  public:
    enum class Kind
    {
        null,
        boolean,
        number,
        string,
        object,
        array,
    };

    Json() = default;

    /** @{ Leaf constructors. */
    static Json makeNull() { return Json(); }
    static Json
    boolean(bool b)
    {
        Json j;
        j.kind_ = Kind::boolean;
        j.bool_ = b;
        return j;
    }
    static Json
    number(std::uint64_t v)
    {
        Json j;
        j.kind_ = Kind::number;
        j.text_ = std::to_string(v);
        return j;
    }
    static Json
    number(std::int64_t v)
    {
        Json j;
        j.kind_ = Kind::number;
        j.text_ = std::to_string(v);
        return j;
    }
    /** Non-finite -> null; see the number rule above. */
    static Json number(double v);
    static Json
    string(std::string s)
    {
        Json j;
        j.kind_ = Kind::string;
        j.text_ = std::move(s);
        return j;
    }
    static Json
    object()
    {
        Json j;
        j.kind_ = Kind::object;
        return j;
    }
    static Json
    array()
    {
        Json j;
        j.kind_ = Kind::array;
        return j;
    }
    /** @} */

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::null; }
    bool isObject() const { return kind_ == Kind::object; }

    /** @{ Typed reads; a kind mismatch is a JsonError. */
    bool asBool() const;
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    double asDouble() const;
    const std::string &asString() const;
    /** @} */

    /** @{ Object access. Members keep insertion order. */
    Json &set(const std::string &key, Json value);
    /** nullptr when the key is absent. */
    const Json *find(const std::string &key) const;
    /** JsonError when the key is absent. */
    const Json &at(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &
    members() const
    {
        requireKind(Kind::object);
        return obj_;
    }
    /** @} */

    /** @{ Array access. */
    Json &append(Json value);
    const std::vector<Json> &
    items() const
    {
        requireKind(Kind::array);
        return arr_;
    }
    /** @} */

    /** @{ Convenience: optional scalar member with default. */
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t def) const;
    bool getBool(const std::string &key, bool def) const;
    std::string getString(const std::string &key,
                          const std::string &def) const;
    /** @} */

    /** Deterministic single-line serialization (no whitespace). */
    std::string dump() const;

    /** Strict whole-string parse; throws JsonError. */
    static Json parse(const std::string &text);

    /** Wrap an already-valid numeric token, kept verbatim. */
    static Json parseNumberToken(std::string token);

  private:
    void requireKind(Kind k) const;
    void dumpTo(std::string &out) const;

    Kind kind_ = Kind::null;
    bool bool_ = false;
    /** A string's contents, or a number's exact decimal token
     *  (kept verbatim). */
    std::string text_;
    std::vector<std::pair<std::string, Json>> obj_;
    std::vector<Json> arr_;
};

} // namespace contutto

#endif // CONTUTTO_SIM_JSON_HH
