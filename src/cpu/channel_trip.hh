/**
 * @file
 * The channel trip of one off-chip access, shared by every workload
 * driver.
 *
 * CoreModel, TraceReplayer and TimedTraceReplayer differ in when
 * they issue an access (MLP and chase windows, a dependent drain, a
 * cache filter, recorded ticks) but not in how it travels. The
 * sampler (sim/sampling.hh), when there is one, decides per trip.
 * A fast-forwarded trip applies its store through the functional
 * hook and is charged the calibrated latency plus the
 * processor-side overhead. A detailed trip goes through the host
 * port, feeds its latency back while the sampler measures, and then
 * pays the overhead. Either way the driver hears of it once,
 * through tripDone().
 *
 * A closed-loop driver (CoreModel, the window-mode TraceReplayer)
 * reacts to each completion, so each fast-forwarded trip completes
 * through its own OneShotEvent. An open-loop driver (one that
 * declares `static constexpr bool openLoop = true`) issues at
 * recorded ticks and waits on nothing; its tripDone only counts the
 * trip off, and its run ends at the last completion. Its
 * fast-forwarded trips share one persistent tail event, which sits
 * where the last of them completes. A trip that completes at c:
 *
 *  - while the tail is pending and c < tail.when(), is done at once;
 *  - otherwise completes the tail's trip at once, and the tail moves
 *    to c by a deschedule plus a schedule, so it takes the tick,
 *    priority and insertion order this trip's one-shot would have
 *    taken (a tie goes to the newer trip, as with one-shots);
 *  - and the tail, when it fires, completes its trip.
 *
 * This is exact: each dropped one-shot would only have counted a
 * trip off, a count that cannot reach zero while the tail still
 * holds one, and every other event keeps its relative order. So the
 * run ends at the same point of the same tick; only the event-queue
 * counters differ from one one-shot per trip.
 */

#ifndef CONTUTTO_CPU_CHANNEL_TRIP_HH
#define CONTUTTO_CPU_CHANNEL_TRIP_HH

#include <type_traits>

#include "cpu/host_port.hh"
#include "sim/sampling.hh"

namespace contutto::cpu
{

/**
 * Base of the workload drivers: sends their trips. @p Driver, the
 * derived class, befriends this base and provides
 * `void tripDone(std::uint32_t token)`, which runs when a trip sent
 * with that token has completed, and optionally
 * `static constexpr bool openLoop = true` (see the file comment).
 */
template <typename Driver>
class ChannelTrips
{
  protected:
    /**
     * @param overhead processor-side time between the channel's
     *        completion and the driver's (Params::nestOverhead).
     * @param sampler  null runs every trip in full detail.
     */
    ChannelTrips(EventQueue &eq, HostMemPort &port, Tick overhead,
                 sim::SamplingController *sampler)
        : eq_(eq), port_(port), overhead_(overhead), sampler_(sampler),
          tail_([this] { done(tailToken_); }, "trips.tail")
    {}

    ~ChannelTrips()
    {
        if (tail_.scheduled())
            eq_.deschedule(&tail_);
    }

    /**
     * Send one access to @p addr. @p workDone is the driver's
     * position on its own work axis, which the sampler's
     * time-per-work estimator records at window edges. The overhead
     * follows the trip unless @p withOverhead is false (a writeback
     * the core does not wait on); tripDone(@p token) runs after it,
     * in the same event when there is none.
     * @return true when the trip travels the real channel.
     */
    bool
    trip(std::uint64_t workDone, Addr addr, bool isWrite,
         std::uint32_t token = 0, bool withOverhead = true)
    {
        const Tick now = eq_.curTick();
        if (sampler_ && !sampler_->beginMiss(workDone, now)) {
            // Fast-forward: stores still land in the memory image,
            // and the estimate and the overhead are charged as one
            // completion.
            if (isWrite)
                sampler_->warmWrite(addr, dmi::CacheLine{});
            const Tick when = now + sampler_->chargedLatency()
                              + (withOverhead ? overhead_ : 0);
            if constexpr (openLoopDriver())
                foldIntoTail(when, token);
            else
                OneShotEvent::schedule(eq_, when,
                                       [this, token] { done(token); });
            return false;
        }

        const bool measured = sampler_ && sampler_->measuring();
        auto completion = [this, token, measured,
                           withOverhead](const HostOpResult &r) {
            if (measured && !r.failed)
                sampler_->observeLatency(r.doneAt - r.issuedAt);
            if (!withOverhead || overhead_ == 0) {
                done(token);
                return;
            }
            OneShotEvent::schedule(eq_, eq_.curTick() + overhead_,
                                   [this, token] { done(token); });
        };
        // Two words and trivially copyable: std::function keeps it
        // in its local buffer, so a detailed trip allocates nothing
        // here.
        static_assert(
            sizeof(completion) <= 2 * sizeof(void *)
            && std::is_trivially_copyable_v<decltype(completion)>);
        if (isWrite)
            port_.write(addr, dmi::CacheLine{}, completion);
        else
            port_.read(addr, completion);
        return true;
    }

  private:
    static constexpr bool
    openLoopDriver()
    {
        if constexpr (requires { Driver::openLoop; })
            return Driver::openLoop;
        else
            return false;
    }

    /** Complete a fast-forwarded trip due at @p when through the
     *  tail, by the rule of the file comment. */
    void
    foldIntoTail(Tick when, std::uint32_t token)
    {
        if (!tail_.scheduled()) {
            tailToken_ = token;
            eq_.schedule(&tail_, when);
            return;
        }
        if (when < tail_.when()) {
            done(token);
            return;
        }
        const std::uint32_t overtaken = tailToken_;
        eq_.deschedule(&tail_);
        tailToken_ = token;
        eq_.schedule(&tail_, when);
        done(overtaken);
    }

    void
    done(std::uint32_t token)
    {
        static_cast<Driver &>(*this).tripDone(token);
    }

    EventQueue &eq_;
    HostMemPort &port_;
    const Tick overhead_;
    sim::SamplingController *const sampler_;
    /** Open loop only: the fast-forwarded trip completing last, and
     *  its token. */
    EventFunctionWrapper tail_;
    std::uint32_t tailToken_ = 0;
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_CHANNEL_TRIP_HH
