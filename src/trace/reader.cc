#include "trace/reader.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "sim/checkpoint.hh"
#include "trace/writer.hh"

namespace contutto::trace
{

MappedTrace::MappedTrace(const std::string &path) : path_(path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw Error(ErrorCode::ioError,
                    "cannot open '" + path + "'");

    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw Error(ErrorCode::ioError,
                    "cannot stat '" + path + "'");
    }
    len_ = std::size_t(st.st_size);

    if (len_ < headerBytes + footerBytes) {
        ::close(fd);
        throw Error(ErrorCode::tooShort,
                    "'" + path + "' is " + std::to_string(len_)
                        + " bytes; need at least "
                        + std::to_string(headerBytes + footerBytes));
    }

    void *map =
        ::mmap(nullptr, len_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        throw Error(ErrorCode::ioError,
                    "cannot mmap '" + path + "'");
    map_ = static_cast<const std::uint8_t *>(map);

    // Validate outermost-in: identity, version, shape, then the
    // checksum over everything. Unmap before throwing.
    try {
        if (std::memcmp(map_, fileMagic, sizeof(fileMagic)) != 0)
            throw Error(ErrorCode::badMagic,
                        "'" + path + "' is not a trace file");

        std::uint32_t version;
        std::memcpy(&version, map_ + 8, sizeof(version));
        if (version != formatVersion)
            throw Error(ErrorCode::badVersion,
                        "'" + path + "' is format version "
                            + std::to_string(version)
                            + "; this decoder speaks "
                            + std::to_string(formatVersion));

        std::size_t body = len_ - headerBytes - footerBytes;
        if (body % recordBytes != 0)
            throw Error(ErrorCode::badLength,
                        "'" + path + "' byte length "
                            + std::to_string(len_)
                            + " is not header + N*record + footer");

        const std::uint8_t *footer = map_ + len_ - footerBytes;
        std::memcpy(&recordCount_, footer, sizeof(recordCount_));
        if (recordCount_ != body / recordBytes)
            throw Error(
                ErrorCode::badCount,
                "'" + path + "' footer claims "
                    + std::to_string(recordCount_)
                    + " records; the length holds "
                    + std::to_string(body / recordBytes));

        std::memcpy(&checksum_, footer + 8, sizeof(checksum_));
        std::uint64_t sum = ckpt::WordSum::of(map_, len_ - 8);
        if (sum != checksum_)
            throw Error(ErrorCode::badChecksum,
                        "'" + path + "' checksum mismatch: file "
                        "carries "
                            + std::to_string(checksum_)
                            + ", contents hash to "
                            + std::to_string(sum));
    } catch (...) {
        ::munmap(const_cast<std::uint8_t *>(map_), len_);
        map_ = nullptr;
        throw;
    }

    recordBase_ = map_ + headerBytes;
}

MappedTrace::~MappedTrace()
{
    if (map_)
        ::munmap(const_cast<std::uint8_t *>(map_), len_);
}

Tick
MappedTrace::validateAll() const
{
    Tick span = 0;
    for (std::uint64_t i = 0; i < recordCount_; ++i)
        span += record(i).tickDelta;
    return span;
}

std::uint64_t
mergeShards(const std::vector<std::string> &shardPaths,
            const std::string &outPath)
{
    struct Cursor
    {
        MappedTrace *trace;
        std::uint64_t next = 0; ///< next record index
        Tick absTick = 0;       ///< absolute tick of current record
        Record rec;
        std::size_t order; ///< input position, final tiebreak

        bool
        advance()
        {
            if (next >= trace->recordCount())
                return false;
            rec = trace->record(next++);
            absTick += rec.tickDelta;
            return true;
        }
    };

    std::vector<std::unique_ptr<MappedTrace>> traces;
    std::vector<Cursor> live;
    for (std::size_t i = 0; i < shardPaths.size(); ++i) {
        traces.push_back(
            std::make_unique<MappedTrace>(shardPaths[i]));
        Cursor c{traces.back().get(), 0, 0, {}, i};
        if (c.advance())
            live.push_back(c);
    }

    auto later = [](const Cursor &a, const Cursor &b) {
        if (a.absTick != b.absTick)
            return a.absTick > b.absTick;
        if (a.rec.threadId != b.rec.threadId)
            return a.rec.threadId > b.rec.threadId;
        return a.order > b.order;
    };
    std::make_heap(live.begin(), live.end(), later);

    TraceWriter writer(outPath);
    Tick lastTick = 0;
    while (!live.empty()) {
        std::pop_heap(live.begin(), live.end(), later);
        Cursor &c = live.back();
        Record out = c.rec;
        out.tickDelta = c.absTick - lastTick;
        lastTick = c.absTick;
        writer.append(out);
        if (c.advance())
            std::push_heap(live.begin(), live.end(), later);
        else
            live.pop_back();
    }
    std::uint64_t count = writer.recordCount();
    writer.close();
    return count;
}

} // namespace contutto::trace
