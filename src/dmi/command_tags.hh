/**
 * @file
 * The buffer side of the DMI tag contract (paper §2.3): whatever its
 * datapath, a memory buffer answers each of the host's 32 tags
 * exactly once. ConTutto's MBS and the Centaur baseline share this
 * core for it: per-tag watchdogs with retry and reclaim, the
 * completion gate, flush fences and same-line ordering (DESIGN.md
 * §4 "Command tags").
 */

#ifndef CONTUTTO_DMI_COMMAND_TAGS_HH
#define CONTUTTO_DMI_COMMAND_TAGS_HH

#include <array>

#include "dmi/command.hh"
#include "firmware/error_log.hh"
#include "sim/sim_object.hh"

namespace contutto::dmi
{

/** One buffer's tag state, in fixed storage for numTags tags. */
class CommandTags
{
  public:
    /** What the owning buffer does on the core's behalf. */
    class Client
    {
      public:
        /** A watchdog expired: re-issue @p tag's memory access. */
        virtual void reissueAccess(unsigned tag) = 0;
        /** Retries spent: answer the host for @p tag, then retire. */
        virtual void reclaimTag(unsigned tag) = 0;
        /** Execute @p cmd, its line free; @p aux as given to admit()
         *  (a parked command's turn). */
        virtual void execute(const MemCommand &cmd, unsigned aux) = 0;
        /** The flush on @p tag has outwaited its writes. */
        virtual void fenceDone(unsigned tag) = 0;

      protected:
        ~Client() = default;
    };

    /** The owner's counters the core advances. */
    struct Counters
    {
        stats::Scalar &cmdTimeouts;
        stats::Scalar &cmdRetries;
        stats::Scalar &tagsReclaimed;
        stats::Scalar &droppedCompletions;
    };

    /** Far above any legitimate access, even behind a saturated
     *  64-deep controller queue: only genuine losses trip it. */
    static constexpr Tick defaultTimeout = microseconds(20);
    /** Re-issues before a stuck tag is reclaimed. */
    static constexpr unsigned maxRetries = 3;

    CommandTags(const SimObject &owner, Client &client,
                const Counters &counters, Tick timeout = defaultTimeout);
    ~CommandTags();

    CommandTags(const CommandTags &) = delete;
    CommandTags &operator=(const CommandTags &) = delete;

    /** Route reclaimed tags and the owner's RAS events to the FSP. */
    void attachErrorLog(firmware::ErrorLog *log) { errorLog_ = log; }
    /** Record @p message under the owner's name, if a log is wired. */
    void log(firmware::Severity severity,
             const std::string &message) const;

    /**
     * Same-line ordering: true when @p cmd may execute now (holding
     * its line until retired if @p holdsLine); false when an older
     * command holds or waits on the line, and @p cmd is parked. A
     * flush never waits.
     */
    bool admit(const MemCommand &cmd, bool holdsLine, unsigned aux = 0);

    /** True when no write-class command is outstanding; otherwise
     *  Client::fenceDone once those admitted so far have retired. */
    bool fence(unsigned tag);

    /** (Re)start @p tag's backed-off watchdog for a memory issue.
     *  @return the issue's sequence, for accept(). */
    std::uint32_t arm(unsigned tag);

    /** The completion gate: false when the issue was superseded or
     *  an injected stall swallows the completion. */
    bool accept(unsigned tag, std::uint32_t seq);

    /** @p tag's command is over: stop its watchdog, execute its
     *  line's parked commands oldest first until one holds the line,
     *  and complete the fences it was the last write to block. */
    void retire(unsigned tag);

    /** Fault injection: swallow the next @p n memory completions. */
    void stallNextCompletions(unsigned n) { stallBudget_ += n; }

    /** No line held or waited on, no flush or write outstanding. */
    bool
    idle() const
    {
        return holding_ == 0 && numParked_ == 0 && numFences_ == 0
            && writes_ == 0;
    }

    /** Drop watchdogs, parked commands and fences; keep the issue
     *  sequences, so late completions stay stale. */
    void powerReset();

    /** @{ The checkpoint tail: issue-sequence counter, stall budget,
     *  tag count, per-tag issue sequences. Only legal while idle. */
    void checkpointSave(ckpt::Section &out) const;
    void checkpointRestore(ckpt::Section &in);
    /** @} */

  private:
    /** A tag's watchdog: armed at each issue, descheduled when the
     *  tag retires. */
    struct Watchdog final : Event
    {
        CommandTags *tags = nullptr;
        std::uint8_t tag = 0;
        void process() override { tags->expire(tag); }
        const char *name() const override { return "tags.watchdog"; }
    };

    struct Tag
    {
        std::uint32_t seq = 0; ///< Latest issue (staleness gate).
        std::uint8_t retries = 0;
        bool inFlight = false; ///< An issue awaits its completion.
        Addr line = 0;         ///< The line a holding tag holds.
    };

    /** A command waiting for its line. */
    struct Parked
    {
        MemCommand cmd;
        std::uint8_t aux = 0;
        bool holdsLine = false;
    };

    /** A pending flush and the write-class tags it outwaits. */
    struct Fence
    {
        std::uint8_t tag = 0;
        std::uint32_t waiting = 0;
    };

    void expire(unsigned tag);
    void disarm(unsigned tag);
    bool lineBusy(Addr line) const;
    void releaseLine(Addr line);
    void writeDrained(unsigned tag);

    const SimObject &owner_;
    Client &client_;
    Counters counters_;
    Tick timeout_;
    firmware::ErrorLog *errorLog_ = nullptr;

    std::array<Tag, numTags> tags_{};
    std::array<Watchdog, numTags> watchdogs_{};
    std::uint32_t holding_ = 0;  ///< Tags holding their line.
    std::array<Parked, numTags> parked_{}; ///< By tag.
    std::array<std::uint8_t, numTags> parkOrder_{}; ///< Oldest first.
    unsigned numParked_ = 0;
    std::array<Fence, numTags> fences_{}; ///< Oldest first.
    unsigned numFences_ = 0;
    std::uint32_t writes_ = 0;   ///< Outstanding write-class tags.

    std::uint32_t seqCounter_ = 0;
    unsigned stallBudget_ = 0;
};

} // namespace contutto::dmi

#endif // CONTUTTO_DMI_COMMAND_TAGS_HH
