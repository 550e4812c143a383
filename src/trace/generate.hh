/**
 * @file
 * Seeded fake-trace generators.
 *
 * Real captured traces are the point of the trace subsystem, but
 * tests, benchmarks, and stress campaigns need reproducible inputs
 * of a chosen shape without running a workload first. Following the
 * cwsnow1 trace_generation idiom, generate() writes a valid binary
 * trace directly, shaped like one of:
 *
 *  - uniform: independent uniform-random accesses over the
 *    footprint;
 *  - qsort: recursive partition passes — two pointers sweeping
 *    toward each other over ever-smaller subranges, with dependent
 *    pivot reads between partitions;
 *  - matmul: C = A*B inner loops — a streaming row of A against a
 *    strided column walk of B with periodic C writebacks, the
 *    classic stride-heavy profile.
 *
 * All shapes are fully determined by the spec (seed included), so
 * the same spec always produces byte-identical files — which is
 * what lets a trace checksum key a campaign memo.
 */

#ifndef CONTUTTO_TRACE_GENERATE_HH
#define CONTUTTO_TRACE_GENERATE_HH

#include <string>

#include "trace/format.hh"

namespace contutto::trace
{

/** Access-pattern families generate() can emit. */
enum class Shape
{
    uniform,
    qsort,
    matmul,
};

/** @return the Shape named @p name; @throw Error(badRecord) for an
 *  unknown name (CLI-facing). Names: uniform, qsort, matmul. */
Shape shapeFromName(const std::string &name);
const char *shapeName(Shape shape);

/** Everything that determines a generated trace. */
struct GenerateSpec
{
    Shape shape = Shape::uniform;
    /** Records to emit. */
    std::uint64_t records = 10000;
    std::uint64_t seed = 1;
    /** Base physical address of the touched region. */
    Addr base = 0;
    /** Bytes of address space the pattern walks. */
    Addr footprint = 8 * 1024 * 1024;
    /** Mean inter-record compute delay (ticks). */
    Tick meanDelay = 0;
    /** threadId stamped on every record. */
    std::uint16_t threadId = 0;
};

struct GenerateResult
{
    std::uint64_t recordCount = 0;
    /** Footer checksum of the written file. */
    std::uint64_t checksum = 0;
};

/**
 * Write a trace of @p spec's shape to @p path (atomically, via
 * TraceWriter). @throw Error on write failure.
 */
GenerateResult generate(const GenerateSpec &spec,
                        const std::string &path);

} // namespace contutto::trace

#endif // CONTUTTO_TRACE_GENERATE_HH
