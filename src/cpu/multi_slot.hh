/**
 * @file
 * The full POWER8 socket memory organization (paper §2.1, §3.1).
 *
 * Eight DMI channels, each ending in a memory buffer: normally a
 * CDIMM (Centaur), optionally a ConTutto card. The paper's plug
 * rules apply: a ConTutto card is physically larger than a CDIMM,
 * so it blocks the adjacent slot, and it may only be plugged into
 * specific slots (modelled as the even-numbered ones). The paper
 * validated one-ConTutto + six-CDIMM and two-ConTutto + four-CDIMM
 * configurations; both are expressible here.
 *
 * Consecutive cache lines interleave across the populated channels,
 * giving the socket-level bandwidth of Figure 1's organization.
 *
 * The socket always runs on a sim::ShardedExecutor: each populated
 * channel — its HostPort, DMI pair, buffer and DIMM stack — is owned
 * by shard (channel index mod Params::shards), each shard with a
 * private EventQueue, under the executor's conservative
 * window/barrier protocol. The lookahead window derives from the
 * DMI link's minimum frame latency, read from the same linkParams()
 * the channels build their lanes from. Channels share no mutable state
 * (clock domains are immutable; stats are per-channel), so the only
 * cross-shard traffic is socket-level arbitration: read()/write()
 * issued from a foreign shard, and their completions, cross via the
 * executor's mailboxes and land at window boundaries. On the default
 * single shard nothing is foreign, so every op runs inline as on one
 * plain queue; only idle runs (trainAll(), runUntilIdle()) return at
 * a window barrier rather than at the last event. The serial
 * fallback (Params::parallelExec == false) is bit-identical to the
 * N-thread run — tests/integration/test_parallel_differential.cc
 * holds both to that, stats-JSON byte for byte.
 */

#ifndef CONTUTTO_CPU_MULTI_SLOT_HH
#define CONTUTTO_CPU_MULTI_SLOT_HH

#include <array>
#include <atomic>

#include "cpu/channel.hh"
#include "mem/line_interleave.hh"
#include "sim/event_stats.hh"
#include "sim/parallel.hh"

namespace contutto::cpu
{

/** What occupies a DMI slot. */
enum class SlotKind
{
    empty,
    cdimm,    ///< A standard Centaur buffered DIMM.
    contutto, ///< A ConTutto card (blocks the next slot).
};

/** One slot's configuration. */
struct SlotSpec
{
    SlotKind kind = SlotKind::cdimm;
    /** Channel parameters; buffer kind is forced from @c kind. */
    ChannelParams channel{};
};

/** The socket. */
class MultiSlotSystem : public stats::StatGroup
{
  public:
    static constexpr unsigned numSlots = 8;

    struct Params
    {
        std::array<SlotSpec, numSlots> slots{};
        /** Shards, at least 1; channel i lives on shard i mod N. */
        unsigned shards = 1;
        /** Worker threads, or the bit-identical serial fallback. */
        bool parallelExec = true;
        /** Lookahead window in ticks; 0 derives it from the DMI
         *  link's minimum frame latency (see deriveWindow()). */
        Tick shardWindow = 0;
    };

    /** Outcome of plug-rule checking. */
    struct Validation
    {
        bool ok = true;
        std::string error;
    };

    /**
     * Check the paper's plug rules: ConTutto only in even slots,
     * and the slot next to a ConTutto must be empty.
     */
    static Validation validate(const Params &params);

    /**
     * The conservative lookahead for a socket with these channels:
     * 1024x the minimum DMI frame latency (serialization of a
     * 28-byte downstream frame plus board flight time, over the
     * lanes linkParams() gives each populated slot's buffer, the
     * same call MemoryChannel builds them with). No cross-slot
     * interaction completes faster than one frame flight, and the
     * x1024 batching amortizes a barrier over thousands of
     * shard-local events.
     */
    static Tick deriveWindow(const Params &params);

    /** @throw FatalError when the plug rules are violated. */
    explicit MultiSlotSystem(const Params &params);
    ~MultiSlotSystem() override;

    /** Train every populated channel; true when all succeed. */
    bool trainAll();

    /** @{ Execution access. */
    sim::ShardedExecutor *executor() { return &exec_; }
    unsigned shardOfChannel(unsigned idx) const
    {
        return idx % exec_.numShards();
    }
    /** The queue channel @p idx lives on. */
    EventQueue &channelQueue(unsigned idx)
    {
        return exec_.queue(shardOfChannel(idx));
    }
    /** @} */

    unsigned populatedChannels() const
    {
        return unsigned(channels_.size());
    }

    /** The channel plugged in @p slot; null when empty/blocked. */
    MemoryChannel *channelInSlot(unsigned slot)
    {
        return slotToChannel_.at(slot);
    }

    /** Populated channels in slot order. */
    MemoryChannel &channel(unsigned idx)
    {
        return *channels_.at(idx);
    }

    /** Total memory behind all populated channels. */
    std::uint64_t totalCapacity() const;

    /** The socket's shared clock domains. */
    const SocketClocks &clocks() const { return clocks_; }

    /**
     * @{ Socket-global operations: lines interleave across the
     * populated channels. These are safe from any shard (and from
     * outside run()): issue and completion cross shards via
     * executor mailboxes when caller and owner differ, which defers
     * them to the next window boundary — identically in serial and
     * parallel modes.
     */
    void read(Addr addr, HostMemPort::Callback cb);
    void write(Addr addr, const dmi::CacheLine &data,
               HostMemPort::Callback cb);
    /** @} */

    /** Which channel index serves a global address. */
    unsigned channelOf(Addr addr) const
    {
        return interleave_.portOf(addr);
    }
    /** The channel-local address for a global address. */
    Addr localAddr(Addr addr) const
    {
        return interleave_.localAddr(addr);
    }

    /**
     * Saturate every channel with independent read streams for
     * @p window simulated time; returns aggregate payload GB/s.
     */
    double measureAggregateReadBandwidth(Tick window =
                                             microseconds(40));

    bool runUntilIdle(Tick timeout = milliseconds(200));

    /** Max simulated time over all shard queues. */
    Tick curTick() const;

  private:
    /** The executor's parameters; checks the plug rules first, as
     *  the window derivation needs a populated slot. */
    static sim::ShardedExecutor::Params
    executorParams(const Params &params);

    /** Route a completion back to the shard that issued the op. */
    HostMemPort::Callback routeCompletion(HostMemPort::Callback cb);

    Params params_;
    /** Declared before the channels: they deschedule events from
     *  its queues on destruction, so it must outlive them. */
    sim::ShardedExecutor exec_;
    sim::ParallelStats parStats_;
    /** Per-shard "shardN" groups holding each queue's eventq. */
    std::vector<std::unique_ptr<stats::StatGroup>> shardGroups_;
    std::vector<std::unique_ptr<EventCoreStats>> shardEqStats_;
    SocketClocks clocks_;
    std::vector<std::unique_ptr<MemoryChannel>> channels_;
    std::array<MemoryChannel *, numSlots> slotToChannel_{};
    /** Cache lines striped across the populated channels. */
    mem::LineInterleave interleave_;
    /** Socket ops whose completion callback has not run yet —
     *  including ones mid-hop between shards, which no channel's
     *  quiescent() can see. Atomic because issue and completion may
     *  happen on different shards; only its settled value at
     *  barriers is ever observed. */
    std::atomic<std::uint64_t> pendingOps_{0};
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_MULTI_SLOT_HH
