#include "cpu/multi_slot.hh"

#include <algorithm>

#include "dmi/channel.hh"
#include "dmi/frame.hh"

namespace contutto::cpu
{

namespace
{

/** The buffer a populated slot holds. */
BufferKind
bufferOf(SlotKind kind)
{
    return kind == SlotKind::contutto ? BufferKind::contutto
                                      : BufferKind::centaur;
}

} // namespace

MultiSlotSystem::Validation
MultiSlotSystem::validate(const Params &params)
{
    Validation v;
    unsigned populated = 0;
    for (unsigned s = 0; s < numSlots; ++s) {
        const SlotSpec &spec = params.slots[s];
        if (spec.kind == SlotKind::empty)
            continue;
        ++populated;
        if (spec.kind == SlotKind::contutto) {
            if (s % 2 != 0) {
                v.ok = false;
                v.error = "ConTutto cards only plug into specific "
                          "(even) DMI slots; slot "
                    + std::to_string(s) + " is not one";
                return v;
            }
            if (s + 1 < numSlots
                && params.slots[s + 1].kind != SlotKind::empty) {
                v.ok = false;
                v.error = "ConTutto in slot " + std::to_string(s)
                    + " physically blocks slot "
                    + std::to_string(s + 1)
                    + ", which must be empty";
                return v;
            }
        }
    }
    if (populated == 0) {
        v.ok = false;
        v.error = "no populated DMI slots";
    }
    return v;
}

Tick
MultiSlotSystem::deriveWindow(const Params &params)
{
    // The fastest cross-slot signal is one downstream frame: its
    // serialization on the channel's lanes plus board flight time.
    // Any cross-shard effect a slot can cause takes at least that
    // long to be observable elsewhere, so it is a safe lookahead;
    // x1024 keeps barriers rare without changing the deferred
    // delivery semantics (post() always lands at a window edge).
    Tick minFrame = maxTick;
    for (const SlotSpec &spec : params.slots) {
        if (spec.kind == SlotKind::empty)
            continue;
        const dmi::DmiChannel::Params link =
            linkParams(bufferOf(spec.kind), /*upstream=*/false);
        const Tick ser = dmi::DmiChannel::serializationTime(
            link, dmi::downFrameBytes);
        minFrame = std::min(minFrame, ser + link.flightTime);
    }
    ct_assert(minFrame != maxTick);
    return minFrame * 1024;
}

sim::ShardedExecutor::Params
MultiSlotSystem::executorParams(const Params &params)
{
    Validation v = validate(params);
    if (!v.ok)
        fatal("plug rules: %s", v.error.c_str());

    sim::ShardedExecutor::Params ep;
    ep.shards = params.shards;
    ep.window = params.shardWindow ? params.shardWindow
                                   : deriveWindow(params);
    ep.mode = params.parallelExec
        ? sim::ShardedExecutor::Mode::parallel
        : sim::ShardedExecutor::Mode::serial;
    return ep;
}

MultiSlotSystem::MultiSlotSystem(const Params &params)
    : stats::StatGroup("socket"), params_(params),
      exec_(executorParams(params)), parStats_(this, exec_)
{
    for (unsigned s = 0; s < params.shards; ++s) {
        shardGroups_.push_back(std::make_unique<stats::StatGroup>(
            "shard" + std::to_string(s), this));
        shardEqStats_.push_back(std::make_unique<EventCoreStats>(
            shardGroups_.back().get(), exec_.queue(s)));
    }

    slotToChannel_.fill(nullptr);
    for (unsigned s = 0; s < numSlots; ++s) {
        const SlotSpec &spec = params.slots[s];
        if (spec.kind == SlotKind::empty)
            continue;
        ChannelParams cp = spec.channel;
        cp.buffer = bufferOf(spec.kind);
        cp.seed = spec.channel.seed + s * 101;
        const unsigned idx = unsigned(channels_.size());
        channels_.push_back(std::make_unique<MemoryChannel>(
            "slot" + std::to_string(s), channelQueue(idx), clocks_,
            this, cp));
        slotToChannel_[s] = channels_.back().get();
    }
    interleave_.numPorts = unsigned(channels_.size());
}

MultiSlotSystem::~MultiSlotSystem() = default;

bool
MultiSlotSystem::trainAll()
{
    // The FSP trains channels in parallel on real machines; do the
    // same here. Per-channel result slots, written shard-locally;
    // the idle predicate reads them at barriers, where the hand-off
    // mutex orders the accesses.
    std::vector<char> done(channels_.size(), 0);
    std::vector<char> ok(channels_.size(), 0);
    for (unsigned i = 0; i < channels_.size(); ++i)
        channels_[i]->trainAsync(
            [&done, &ok, i](const dmi::TrainingResult &r) {
                done[i] = 1;
                ok[i] = r.success ? 1 : 0;
            });
    const bool finished = exec_.runUntilIdle(
        [&done] {
            return std::find(done.begin(), done.end(), 0) == done.end();
        },
        milliseconds(200));
    return finished && std::find(ok.begin(), ok.end(), 0) == ok.end();
}

std::uint64_t
MultiSlotSystem::totalCapacity() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch->memoryCapacity();
    return total;
}

HostMemPort::Callback
MultiSlotSystem::routeCompletion(HostMemPort::Callback cb)
{
    // Count the op until its callback has actually run, so
    // runUntilIdle's predicate sees ops that are mid-hop between
    // shards (invisible to any channel's quiescent()). A port runs
    // each completion once, so the hop may take the callback; a
    // setup-time caller has no shard to return to.
    pendingOps_.fetch_add(1, std::memory_order_relaxed);
    const unsigned caller = exec_.currentShard();
    return [this, caller, cb = std::move(cb)](
               const HostOpResult &r) mutable {
        auto finish = [this, cb = std::move(cb), r] {
            if (cb)
                cb(r);
            pendingOps_.fetch_sub(1, std::memory_order_relaxed);
        };
        if (caller == sim::ShardedExecutor::invalidShard)
            finish();
        else
            exec_.runOn(caller, std::move(finish));
    };
}

void
MultiSlotSystem::read(Addr addr, HostMemPort::Callback cb)
{
    // A foreign (or setup-time) caller hops to the owner shard at
    // its current time. Inside run() that defers to the next window
    // edge; outside it lands immediately — identically in serial and
    // parallel modes.
    const unsigned ch = channelOf(addr);
    exec_.runOn(shardOfChannel(ch),
                [this, ch, local = localAddr(addr),
                 cb = routeCompletion(std::move(cb))]() mutable {
                    channels_[ch]->port().read(local, std::move(cb));
                });
}

void
MultiSlotSystem::write(Addr addr, const dmi::CacheLine &data,
                       HostMemPort::Callback cb)
{
    const unsigned ch = channelOf(addr);
    exec_.runOn(shardOfChannel(ch),
                [this, ch, local = localAddr(addr), data,
                 cb = routeCompletion(std::move(cb))]() mutable {
                    channels_[ch]->port().write(local, data,
                                                std::move(cb));
                });
}

double
MultiSlotSystem::measureAggregateReadBandwidth(Tick window)
{
    // Independent sequential streams per channel, kept at full tag
    // occupancy; payload bytes delivered inside the window count.
    const Tick start = curTick();
    const Tick end = start + window;
    struct Stream
    {
        Addr next = 0;
        std::uint64_t bytes = 0;
    };
    std::vector<Stream> streams(channels_.size());

    // Each stream's issue loop and byte counter stay on the owning
    // channel's shard: the port callback fires there, and it only
    // touches streams[ch]. Nothing is shared across shards, so the
    // measurement needs no routing and no locks.
    std::function<void(unsigned)> issue = [&](unsigned ch) {
        if (channelQueue(ch).curTick() >= end)
            return;
        Addr a = streams[ch].next;
        streams[ch].next += dmi::cacheLineSize;
        channels_[ch]->port().read(
            a, [&, ch](const HostOpResult &r) {
                if (r.dataAt <= end)
                    streams[ch].bytes += dmi::cacheLineSize;
                issue(ch);
            });
    };
    for (unsigned ch = 0; ch < channels_.size(); ++ch)
        for (int k = 0; k < 40; ++k) // beyond the 32 tags
            issue(ch);
    exec_.run(end);
    runUntilIdle();
    std::uint64_t bytes = 0;
    for (const Stream &s : streams)
        bytes += s.bytes;
    return double(bytes) / ticksToSeconds(window) / 1e9;
}

bool
MultiSlotSystem::runUntilIdle(Tick timeout)
{
    return exec_.runUntilIdle(
        [this] {
            if (pendingOps_.load(std::memory_order_relaxed))
                return false;
            for (const auto &ch : channels_)
                if (!ch->quiescent())
                    return false;
            return true;
        },
        timeout);
}

Tick
MultiSlotSystem::curTick() const
{
    Tick t = 0;
    for (unsigned s = 0; s < exec_.numShards(); ++s)
        t = std::max(t, exec_.queue(s).curTick());
    return t;
}

} // namespace contutto::cpu
