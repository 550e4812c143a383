/**
 * @file
 * The TCAM use case (§3.2): longest-prefix routing lookups in the
 * ternary CAM on ConTutto vs a software multi-level trie walk whose
 * every level is a dependent load through the memory channel.
 */

#include <cstdio>
#include <cstring>

#include "accel/tcam.hh"
#include "cpu/system.hh"

using namespace contutto;
using namespace contutto::accel;
using namespace contutto::cpu;

namespace
{

/** Issue one TCAM command line and wait for completion. */
void
tcamCommand(Power8System &sys, TcamMmio &tcam, std::uint64_t op,
            std::uint64_t index, std::uint64_t value,
            std::uint64_t mask, std::uint64_t result,
            std::uint64_t key)
{
    dmi::CacheLine line{};
    std::memcpy(line.data() + 0, &op, 8);
    std::memcpy(line.data() + 8, &index, 8);
    std::memcpy(line.data() + 16, &value, 8);
    std::memcpy(line.data() + 24, &mask, 8);
    std::memcpy(line.data() + 32, &result, 8);
    std::memcpy(line.data() + 40, &key, 8);
    sys.port().write(tcam.mmioBase(), line, nullptr);
    sys.runUntilIdle();
}

} // namespace

int
main()
{
    Power8System::Params params;
    params.dimms = {DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}},
                    DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
    Power8System sys(params);
    if (!sys.train())
        return 1;
    TcamMmio tcam("tcam", sys.eventq(), sys.fabricDomain(), &sys,
                  sys.card()->avalon(), 3ull * GiB);

    // A routing table: specific /24s, some /16s, a default route.
    const int routes = 64;
    Rng rng(3);
    for (int i = 0; i < routes; ++i) {
        std::uint64_t prefix = rng.next() & 0xFFFFFF00;
        tcamCommand(sys, tcam, TcamMmio::opWriteEntry, i, prefix,
                    0xFFFFFF00, 1000 + i, 0);
    }
    tcamCommand(sys, tcam, TcamMmio::opWriteEntry, routes, 0, 0, 999,
                0); // default route, lowest priority

    // ---- TCAM path: one store (the key) + one load (the hit) ----
    const int lookups = 64;
    Tick t0 = sys.eventq().curTick();
    for (int i = 0; i < lookups; ++i) {
        tcamCommand(sys, tcam, TcamMmio::opLookup, 0, 0, 0, 0,
                    rng.next() & 0xFFFFFFFF);
        bool got = false;
        sys.port().read(tcam.mmioBase() + 128,
                        [&](const HostOpResult &) { got = true; });
        sys.runUntilIdle();
        if (!got)
            return 1;
    }
    double tcam_ns =
        ticksToNs(sys.eventq().curTick() - t0) / lookups;

    // ---- software path: a 4-level trie walk, every level a
    //      dependent cache-line load from main memory ----
    // (Stage pointers functionally; the walk itself is timed.)
    t0 = sys.eventq().curTick();
    int walked = 0;
    std::function<void()> walk = [&] {
        if (walked >= lookups)
            return;
        std::uint64_t key = rng.next() & 0xFFFFFFFF;
        auto level = std::make_shared<int>(0);
        std::shared_ptr<std::function<void(Addr)>> step =
            std::make_shared<std::function<void(Addr)>>();
        // The walk holds itself only weakly; the pending read holds
        // it strongly, so it is freed once the last level returns.
        std::weak_ptr<std::function<void(Addr)>> self = step;
        *step = [&, level, self, key](Addr node) {
            sys.port().read(node, [&, level, next_step = self.lock(),
                                   key](const HostOpResult &) {
                if (++*level >= 4) {
                    ++walked;
                    walk();
                    return;
                }
                // Next node indexed by the next 8 key bits.
                Addr next = 16 * MiB
                    + ((key >> (8 * *level)) & 0xFF) * 4096
                    + Addr(*level) * 1 * MiB;
                (*next_step)(next & ~Addr(127));
            });
        };
        (*step)(16 * MiB + (key & 0xFF) * 4096);
    };
    walk();
    sys.runUntilIdle(milliseconds(500));
    double trie_ns =
        ticksToNs(sys.eventq().curTick() - t0) / lookups;

    std::printf("route lookup, %d routes, %d lookups:\n", routes + 1,
                lookups);
    std::printf("  TCAM on ConTutto:   %6.0f ns per lookup "
                "(1 store + 1 load to the MMIO window)\n", tcam_ns);
    std::printf("  software trie walk: %6.0f ns per lookup "
                "(4 dependent loads through the channel)\n",
                trie_ns);
    std::printf("  -> %.1fx with the lookup done next to memory; "
                "TCAM stats: %.0f lookups, %.0f hits\n",
                trie_ns / tcam_ns, tcam.tcamStats().lookups.value(),
                tcam.tcamStats().hits.value());
    return 0;
}
