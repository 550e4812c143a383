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
 * trip off, and its run ends at the last completion. Two things
 * follow, and DESIGN.md §14 argues both exact.
 *
 * Its fast-forwarded trips share one *tail*: the trip that completes
 * last so far, held as (tick, token, insertion order) beside a
 * persistent event. A trip that completes at c:
 *
 *  - while the tail holds a trip due after c, is done at once;
 *  - otherwise completes the tail's trip at once and becomes the
 *    tail, with an insertion order reserved from the queue where its
 *    one-shot would have been scheduled (so a tie goes to the newer
 *    trip, as with one-shots).
 *
 * The tail enters the queue only when it can fire: the driver calls
 * settleTail() with the tick of its next issue (maxTick when it has
 * none left), and the tail is scheduled at its reserved order when
 * it is due by then. A tail due later would be overtaken or fired
 * after that issue anyway, and a dropped firing only counted a trip
 * off, a count that cannot reach zero while the driver has records
 * left.
 *
 * And it may issue a trip the sampler will fast-forward ahead of the
 * clock (nextTripSkips(), skipAheadTrip()): such a trip schedules
 * nothing and reads nothing that events between now and its tick
 * could change, so the driver issues every one due before the
 * queue's next event in the event it is running, stamped with its
 * own tick. Only the event-queue counters differ from one issue
 * event per tick and one one-shot per trip.
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
 * An open-loop driver calls settleTail() whenever it schedules its
 * next issue, and once when it has none left.
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
          tail_(
              [this] {
                  tailHeld_ = false;
                  done(tailToken_);
              },
              "trips.tail")
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
            fastForward(now, addr, isWrite, token, withOverhead);
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

    /** Open loop: true when the sampler will fast-forward the next
     *  trip, which the driver may then send ahead of the clock. */
    bool
    nextTripSkips() const
    {
        return sampler_ && sampler_->nextIsFastForward();
    }

    /**
     * Open loop: send the trip nextTripSkips() vouched for as issued
     * at @p at, at or after curTick() and before any event still to
     * fire (file comment). Its store, its charged completion and the
     * sampler see @p at, not curTick().
     */
    void
    skipAheadTrip(std::uint64_t workDone, Tick at, Addr addr,
                  bool isWrite)
    {
        static_assert(openLoopDriver());
        const bool detailed = sampler_->beginMiss(workDone, at);
        ct_assert(!detailed);
        fastForward(at, addr, isWrite, 0, true);
    }

    /** Open loop: schedule the tail when it is due at or before
     *  @p nextIssue, the tick of the driver's next issue (maxTick
     *  when it has none left). */
    void
    settleTail(Tick nextIssue)
    {
        if (tailHeld_ && !tail_.scheduled() && tailWhen_ <= nextIssue)
            eq_.scheduleReserved(&tail_, tailWhen_, tailOrder_);
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

    /** Fast-forward a trip issued at @p at: stores still land in the
     *  memory image, and the estimate and the overhead are charged
     *  as one completion. */
    void
    fastForward(Tick at, Addr addr, bool isWrite, std::uint32_t token,
                bool withOverhead)
    {
        if (isWrite)
            sampler_->warmWrite(addr, dmi::CacheLine{});
        const Tick when = at + sampler_->chargedLatency()
                          + (withOverhead ? overhead_ : 0);
        if constexpr (openLoopDriver())
            foldIntoTail(when, token);
        else
            OneShotEvent::schedule(eq_, when,
                                   [this, token] { done(token); });
    }

    /** Complete a fast-forwarded trip due at @p when through the
     *  tail, by the rule of the file comment. */
    void
    foldIntoTail(Tick when, std::uint32_t token)
    {
        if (tailHeld_ && when < tailWhen_) {
            done(token);
            return;
        }
        const bool overtakes = tailHeld_;
        const std::uint32_t overtaken = tailToken_;
        if (tail_.scheduled())
            eq_.deschedule(&tail_);
        tailHeld_ = true;
        tailWhen_ = when;
        tailToken_ = token;
        tailOrder_ = eq_.reserveOrder();
        if (overtakes)
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
    /** @{ Open loop only: the fast-forwarded trip completing last
     *  (held while tailHeld_), its completion tick, token and
     *  reserved insertion order, and the event that completes it
     *  once settleTail() has scheduled it. */
    EventFunctionWrapper tail_;
    bool tailHeld_ = false;
    Tick tailWhen_ = 0;
    std::uint32_t tailToken_ = 0;
    std::uint64_t tailOrder_ = 0;
    /** @} */
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_CHANNEL_TRIP_HH
