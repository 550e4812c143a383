/**
 * @file
 * Offline trace utility: inspect / validate / convert / generate /
 * merge binary memory traces (src/trace).
 *
 *   trace_tool inspect  FILE [--records=N]
 *   trace_tool validate FILE
 *   trace_tool convert  IN OUT --to=text|binary
 *   trace_tool generate OUT [--shape=uniform|qsort|matmul]
 *            [--records=N] [--seed=N] [--footprint=BYTES]
 *            [--mean-delay-ns=N] [--thread=N] [--base=ADDR]
 *   trace_tool merge    OUT IN...
 *
 * Exit status: 0 on success, 1 on any trace::Error (the message
 * names the typed error code), 2 on usage errors. `validate` is
 * the scriptable gate: it decodes every record, so a file that
 * passes will replay without surprises.
 */

#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_util.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"
#include "trace/text.hh"

using namespace contutto;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: trace_tool inspect  FILE [--records=N]\n"
        "       trace_tool validate FILE\n"
        "       trace_tool convert  IN OUT --to=text|binary\n"
        "       trace_tool generate OUT [--shape=uniform|qsort|"
        "matmul]\n"
        "                [--records=N] [--seed=N] "
        "[--footprint=BYTES]\n"
        "                [--mean-delay-ns=N] [--thread=N] "
        "[--base=ADDR]\n"
        "       trace_tool merge    OUT IN...\n");
    return 2;
}

int
inspect(const std::string &path, std::uint64_t show)
{
    trace::MappedTrace bin(path);
    std::printf("file:     %s\n", path.c_str());
    std::printf("bytes:    %zu\n", bin.fileBytes());
    std::printf("records:  %llu\n",
                (unsigned long long)bin.recordCount());
    std::printf("checksum: %016llx\n",
                (unsigned long long)bin.checksum());
    Tick tick = 0;
    std::uint64_t reads = 0, writes = 0;
    for (std::uint64_t i = 0; i < bin.recordCount(); ++i) {
        trace::Record r = bin.record(i);
        tick += r.tickDelta;
        if (trace::opIsWrite(r.op))
            ++writes;
        else
            ++reads;
        if (i < show)
            std::printf("  [%llu] t=%llu %c 0x%llx size=%u "
                        "thread=%u\n",
                        (unsigned long long)i,
                        (unsigned long long)tick, trace::opChar(r.op),
                        (unsigned long long)r.addr,
                        1u << r.sizeLog2, r.threadId);
    }
    std::printf("reads:    %llu\n", (unsigned long long)reads);
    std::printf("writes:   %llu\n", (unsigned long long)writes);
    std::printf("span:     %llu ps\n", (unsigned long long)tick);
    return 0;
}

int
validate(const std::string &path)
{
    trace::MappedTrace bin(path);
    Tick span = bin.validateAll();
    std::printf("%s: ok (%llu records, %llu ps, checksum "
                "%016llx)\n",
                path.c_str(),
                (unsigned long long)bin.recordCount(),
                (unsigned long long)span,
                (unsigned long long)bin.checksum());
    return 0;
}

int
convert(const std::string &in, const std::string &out,
        const std::string &to)
{
    if (to == "text") {
        trace::MappedTrace bin(in);
        bin.validateAll();
        std::ofstream os(out);
        trace::writeText(bin, os);
        os.close();
        if (!os)
            throw trace::Error(trace::ErrorCode::ioError,
                               "cannot write '" + out + "'");
        std::printf("%s: %llu records -> %s (text)\n", in.c_str(),
                    (unsigned long long)bin.recordCount(),
                    out.c_str());
        return 0;
    }
    if (to == "binary") {
        std::ifstream is(in);
        if (!is)
            throw trace::Error(trace::ErrorCode::ioError,
                               "cannot read '" + in + "'");
        trace::TraceWriter writer(out);
        std::uint64_t n = trace::readText(is, writer);
        writer.close();
        std::printf("%s: %llu records -> %s (binary, checksum "
                    "%016llx)\n",
                    in.c_str(), (unsigned long long)n, out.c_str(),
                    (unsigned long long)writer.checksum());
        return 0;
    }
    return usage();
}

int
generate(int argc, char **argv, const std::string &out)
{
    trace::GenerateSpec spec;
    std::string shape =
        bench::parseFlag(argc, argv, "--shape", "uniform");
    spec.shape = trace::shapeFromName(shape);
    spec.records =
        bench::parseUnsigned(argc, argv, "--records", 100000);
    spec.seed = bench::parseUnsigned(argc, argv, "--seed", 1);
    spec.base = bench::parseUnsigned(argc, argv, "--base", 0);
    spec.footprint = bench::parseUnsigned(argc, argv, "--footprint",
                                          spec.footprint);
    spec.meanDelay = nanoseconds(bench::parseUnsigned(
        argc, argv, "--mean-delay-ns", 0));
    spec.threadId = std::uint16_t(
        bench::parseUnsigned(argc, argv, "--thread", 0));
    trace::GenerateResult r = trace::generate(spec, out);
    std::printf("%s: %s, %llu records, checksum %016llx\n",
                out.c_str(), trace::shapeName(spec.shape),
                (unsigned long long)r.recordCount,
                (unsigned long long)r.checksum);
    return 0;
}

int
merge(const std::vector<std::string> &ins, const std::string &out)
{
    std::uint64_t n = trace::mergeShards(ins, out);
    trace::MappedTrace merged(out);
    std::printf("%s: %llu records from %zu shards, checksum "
                "%016llx\n",
                out.c_str(), (unsigned long long)n, ins.size(),
                (unsigned long long)merged.checksum());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string verb = argv[1];
    try {
        if (verb == "inspect")
            return inspect(argv[2],
                           bench::parseUnsigned(argc, argv,
                                                "--records", 10));
        if (verb == "validate")
            return validate(argv[2]);
        if (verb == "convert") {
            if (argc < 4)
                return usage();
            return convert(argv[2], argv[3],
                           bench::parseFlag(argc, argv, "--to"));
        }
        if (verb == "generate")
            return generate(argc, argv, argv[2]);
        if (verb == "merge") {
            std::vector<std::string> ins;
            for (int i = 3; i < argc; ++i)
                ins.emplace_back(argv[i]);
            if (ins.empty())
                return usage();
            return merge(ins, argv[2]);
        }
    } catch (const trace::Error &e) {
        std::fprintf(stderr, "trace_tool: %s\n", e.what());
        return 1;
    }
    return usage();
}
