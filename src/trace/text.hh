/**
 * @file
 * The text form of a memory trace, for hand-written and exported
 * traces (`trace_tool convert`). One record per line:
 *
 *     <delay_ns> <r|w|R|W> <hex_addr>
 *
 * where the delay is the record's tickDelta in ns with at most three
 * decimals (1 ps resolution), uppercase marks a dependent access and
 * the address is aligned down to its 128 B line. '#' starts a
 * comment; blank lines are skipped. Text carries no size or thread:
 * parsed records are 128 B lines of thread 0, so a trace of those
 * survives binary -> text -> binary byte for byte.
 */

#ifndef CONTUTTO_TRACE_TEXT_HH
#define CONTUTTO_TRACE_TEXT_HH

#include <istream>
#include <ostream>

#include "trace/reader.hh"
#include "trace/writer.hh"

namespace contutto::trace
{

/** The text spelling of @p op: r, w, R or W. */
char opChar(Op op);

/**
 * Parse text records from @p in and append each to @p out.
 * @return the number of records appended.
 * @throw Error(badRecord, "line N: ...") on a malformed line.
 */
std::uint64_t readText(std::istream &in, TraceWriter &out);

/** Write every record of @p in to @p out as text. */
void writeText(const MappedTrace &in, std::ostream &out);

} // namespace contutto::trace

#endif // CONTUTTO_TRACE_TEXT_HH
