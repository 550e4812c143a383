#include "cpu/cache_hierarchy.hh"

namespace contutto::cpu
{

namespace
{

/** POWER8 cache line, bytes. */
constexpr unsigned lineSize = 128;

} // namespace

CacheHierarchy::CacheHierarchy(const std::string &name,
                               stats::StatGroup *parent,
                               const Params &params)
    : stats::StatGroup(name, parent), params_(params),
      l1_(params.l1.capacity, lineSize, params.l1.ways),
      l2_(params.l2.capacity, lineSize, params.l2.ways),
      l3_(params.l3.capacity, lineSize, params.l3.ways),
      stats_{{this, "references", "references filtered"},
             {this, "l1Hits", "L1 hits"},
             {this, "l2Hits", "L2 hits"},
             {this, "l3Hits", "L3 hits"},
             {this, "memoryAccesses", "references reaching memory"},
             {this, "writebacks", "dirty L3 victims written back"}}
{}

CacheHierarchy::Access
CacheHierarchy::access(Addr addr, bool is_write)
{
    ++stats_.references;
    Access out;
    addr &= ~Addr(lineSize - 1);

    // L1.
    bool hit = is_write ? l1_.writeHit(addr) : l1_.lookup(addr);
    if (hit) {
        ++stats_.l1Hits;
        out.servedBy = Level::l1;
        out.delay = params_.l1.hitLatency;
        return out;
    }

    // L2.
    hit = is_write ? l2_.writeHit(addr) : l2_.lookup(addr);
    if (hit) {
        ++stats_.l2Hits;
        out.servedBy = Level::l2;
        out.delay = params_.l1.hitLatency + params_.l2.hitLatency;
        // Fill upward; L1 victims fall into L2 silently (its tag is
        // usually still there under rough inclusion).
        auto v1 = l1_.fill(addr, is_write);
        if (v1 && v1->dirty)
            l2_.fill(v1->lineAddr, true);
        return out;
    }

    // L3.
    hit = is_write ? l3_.writeHit(addr) : l3_.lookup(addr);
    Tick chip_delay = params_.l1.hitLatency + params_.l2.hitLatency
        + params_.l3.hitLatency;
    if (hit) {
        ++stats_.l3Hits;
        out.servedBy = Level::l3;
        out.delay = chip_delay;
    } else {
        ++stats_.memoryAccesses;
        out.servedBy = Level::memory;
        out.delay = chip_delay; // the miss path still walks the tags
    }

    // Fill the whole way up on L3 hit or memory fetch.
    auto v1 = l1_.fill(addr, is_write);
    if (v1 && v1->dirty)
        l2_.fill(v1->lineAddr, true);
    auto v2 = l2_.fill(addr, is_write);
    if (v2 && v2->dirty)
        l3_.fill(v2->lineAddr, true);
    auto v3 = l3_.fill(addr, is_write);
    if (v3 && v3->dirty) {
        ++stats_.writebacks;
        out.writeback = v3->lineAddr;
    }
    return out;
}

void
CacheHierarchy::invalidateAll()
{
    l1_.invalidateAll();
    l2_.invalidateAll();
    l3_.invalidateAll();
}

} // namespace contutto::cpu
