#include "accel/tcam.hh"

#include <cstring>

namespace contutto::accel
{

namespace
{

/** CAM entries (route-table size). */
constexpr unsigned entries = 1024;
/** Match latency in fabric cycles (priority encode). */
constexpr unsigned lookupCycles = 2;

std::uint64_t
getU64(const dmi::CacheLine &line, std::size_t off)
{
    std::uint64_t v;
    std::memcpy(&v, line.data() + off, 8);
    return v;
}

void
putU64(dmi::CacheLine &line, std::size_t off, std::uint64_t v)
{
    std::memcpy(line.data() + off, &v, 8);
}

} // namespace

TcamMmio::TcamMmio(const std::string &name, EventQueue &eq,
                   const ClockDomain &domain,
                   stats::StatGroup *parent, bus::AvalonBus &bus,
                   Addr mmio_base)
    : SimObject(name, eq, domain, parent), mmioBase_(mmio_base),
      cam_(entries),
      stats_{{this, "lookups", "lookup commands executed"},
             {this, "hits", "lookups that matched an entry"},
             {this, "updates", "entry writes/invalidates"}}
{
    bus.attach(*this,
               bus::AddressRange{mmio_base, 2 * dmi::cacheLineSize});
}

void
TcamMmio::access(const mem::MemRequestPtr &req)
{
    if (req->isWrite) {
        if (req->addr == 0) {
            dmi::CacheLine cmd = req->data;
            if (req->masked) {
                // Merge over the previous command image.
                for (std::size_t i = 0; i < cmd.size(); ++i)
                    if (!req->enables[i])
                        cmd[i] = 0;
            }
            // The match + priority encode takes a couple of fabric
            // cycles; respond through the response line after it.
            OneShotEvent::schedule(
                eventq(), clockEdge(lookupCycles),
                [this, cmd] { execute(cmd); });
        }
    } else {
        req->data.fill(0);
        if (req->addr == dmi::cacheLineSize)
            req->data = response_;
    }
    if (req->onDone)
        req->onDone(*req);
}

void
TcamMmio::execute(const dmi::CacheLine &cmd)
{
    std::uint64_t op = getU64(cmd, 0);
    std::uint64_t index = getU64(cmd, 8);
    switch (op) {
      case opWriteEntry: {
        Tcam::Entry e;
        e.valid = true;
        e.value = getU64(cmd, 16);
        e.mask = getU64(cmd, 24);
        e.result = getU64(cmd, 32);
        cam_.write(unsigned(index), e);
        ++stats_.updates;
        break;
      }
      case opInvalidate:
        cam_.invalidate(unsigned(index));
        ++stats_.updates;
        break;
      case opLookup: {
        std::uint64_t key = getU64(cmd, 40);
        auto hit = cam_.lookup(key);
        ++stats_.lookups;
        response_.fill(0);
        putU64(response_, 0, hit ? 1 : 0);
        if (hit) {
            ++stats_.hits;
            putU64(response_, 8, hit->index);
            putU64(response_, 16, hit->result);
        }
        putU64(response_, 24, ++lookupsDone_);
        break;
      }
      default:
        warn("TCAM: unknown opcode %llu", (unsigned long long)op);
        break;
    }
}

} // namespace contutto::accel
