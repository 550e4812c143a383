#include "trace/text.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>

namespace contutto::trace
{

namespace
{

/** Text spells Op n as opChars[n]. */
constexpr char opChars[] = "rwRW";

/** Text addresses name the 128 B line. */
constexpr Addr lineMask = ~Addr(127);

/** All of @p s as an unsigned number in @p base. */
bool
parseUnsigned(std::string_view s, int base, std::uint64_t &v)
{
    auto [end, ec] =
        std::from_chars(s.data(), s.data() + s.size(), v, base);
    return !s.empty() && ec == std::errc()
        && end == s.data() + s.size();
}

/** Exact decimal ns (at most three places) to ps. */
bool
parseDelay(std::string_view s, Tick &ps)
{
    std::size_t dot = std::min(s.find('.'), s.size());
    std::string_view whole = s.substr(0, dot);
    std::string_view frac = s.substr(std::min(dot + 1, s.size()));
    std::uint64_t ns = 0, fracPs = 0;
    if ((whole.empty() && frac.empty()) || frac.size() > 3
        || (!whole.empty() && !parseUnsigned(whole, 10, ns))
        || (!frac.empty() && !parseUnsigned(frac, 10, fracPs))
        || ns > maxTick / 1000 - 1)
        return false;
    for (std::size_t i = frac.size(); i < 3; ++i)
        fracPs *= 10;
    ps = ns * 1000 + fracPs;
    return true;
}

bool
parseAddr(std::string_view s, Addr &addr)
{
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X'))
        s.remove_prefix(2);
    return parseUnsigned(s, 16, addr);
}

} // namespace

char
opChar(Op op)
{
    return std::uint8_t(op) < numOps ? opChars[std::uint8_t(op)]
                                     : '?';
}

std::uint64_t
readText(std::istream &in, TraceWriter &out)
{
    std::string line;
    std::uint64_t lineno = 0, count = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto bad = [&](const std::string &what) {
            return Error(ErrorCode::badRecord,
                         "line " + std::to_string(lineno) + ": "
                             + what);
        };
        std::istringstream ls(line.substr(0, line.find('#')));
        std::string tok[4];
        int n = 0;
        while (n < 4 && ls >> tok[n])
            ++n;
        if (n == 0)
            continue; // blank or comment
        if (n != 3)
            throw bad("expected '<delay_ns> <r|w|R|W> <hex_addr>'");
        Record rec;
        if (!parseDelay(tok[0], rec.tickDelta))
            throw bad("bad delay '" + tok[0] + "'");
        const char *op = tok[1].size() == 1
                             ? std::strchr(opChars, tok[1][0])
                             : nullptr;
        if (!op)
            throw bad("bad op '" + tok[1] + "'");
        rec.op = Op(op - opChars);
        if (!parseAddr(tok[2], rec.addr))
            throw bad("bad address '" + tok[2] + "'");
        rec.addr &= lineMask;
        out.append(rec);
        ++count;
    }
    return count;
}

void
writeText(const MappedTrace &in, std::ostream &out)
{
    for (std::uint64_t i = 0; i < in.recordCount(); ++i) {
        Record r = in.record(i);
        char line[64];
        std::snprintf(line, sizeof(line), "%llu.%03llu %c %llx\n",
                      (unsigned long long)(r.tickDelta / 1000),
                      (unsigned long long)(r.tickDelta % 1000),
                      opChar(r.op),
                      (unsigned long long)(r.addr & lineMask));
        out << line;
    }
}

} // namespace contutto::trace
