#include "dmi/command_tags.hh"

#include <algorithm>
#include <bit>

namespace contutto::dmi
{

static_assert(numTags <= 32, "tag sets are 32-bit masks");

namespace
{

constexpr std::uint32_t
bit(unsigned i)
{
    return std::uint32_t(1) << i;
}

} // namespace

CommandTags::CommandTags(const SimObject &owner, Client &client,
                         const Counters &counters, Tick timeout)
    : owner_(owner), client_(client), counters_(counters),
      timeout_(timeout)
{
    ct_assert(timeout_ > 0);
    for (unsigned t = 0; t < numTags; ++t) {
        watchdogs_[t].tags = this;
        watchdogs_[t].tag = std::uint8_t(t);
    }
}

CommandTags::~CommandTags()
{
    for (unsigned t = 0; t < numTags; ++t)
        disarm(t);
}

void
CommandTags::log(firmware::Severity severity,
                 const std::string &message) const
{
    if (errorLog_)
        errorLog_->record(owner_.curTick(), owner_.name(), severity,
                          message);
}

bool
CommandTags::admit(const MemCommand &cmd, bool holdsLine, unsigned aux)
{
    if (hasWriteData(cmd.type))
        writes_ |= bit(cmd.tag);
    if (cmd.type == CmdType::flush)
        return true;
    if (!lineBusy(cmd.addr)) {
        if (holdsLine) {
            holding_ |= bit(cmd.tag);
            tags_[cmd.tag].line = cmd.addr;
        }
        return true;
    }
    parked_[cmd.tag] = Parked{cmd, std::uint8_t(aux), holdsLine};
    parkOrder_[numParked_++] = cmd.tag;
    return false;
}

bool
CommandTags::fence(unsigned tag)
{
    if (writes_ == 0)
        return true;
    ct_assert(numFences_ < numTags);
    fences_[numFences_++] = Fence{std::uint8_t(tag), writes_};
    return false;
}

std::uint32_t
CommandTags::arm(unsigned tag)
{
    Tag &t = tags_[tag];
    t.seq = ++seqCounter_;
    t.inFlight = true;
    // Exponential backoff: each retry waits twice as long, giving a
    // congested memory system room to drain before giving up. The
    // re-arm takes a fresh place among same-tick events, as a new
    // watchdog would.
    Tick wait = timeout_ << t.retries;
    disarm(tag);
    owner_.eventq().schedule(&watchdogs_[tag], owner_.curTick() + wait);
    return t.seq;
}

bool
CommandTags::accept(unsigned tag, std::uint32_t seq)
{
    Tag &t = tags_[tag];
    if (!t.inFlight || t.seq != seq)
        return false; // superseded by a retry or reclaim
    if (stallBudget_ > 0) {
        --stallBudget_;
        ++counters_.droppedCompletions;
        return false;
    }
    t.inFlight = false;
    return true;
}

void
CommandTags::retire(unsigned tag)
{
    disarm(tag);
    Addr line = tags_[tag].line;
    tags_[tag] = Tag{};
    if (holding_ & bit(tag)) {
        holding_ &= ~bit(tag);
        releaseLine(line);
    }
    if (writes_ & bit(tag))
        writeDrained(tag);
}

void
CommandTags::expire(unsigned tag)
{
    Tag &t = tags_[tag];
    // Between an RMW's read and its write nothing is outstanding.
    if (!t.inFlight)
        return;
    ++counters_.cmdTimeouts;
    if (t.retries >= maxRetries) {
        ++counters_.tagsReclaimed;
        warn("%s: reclaiming tag %u after %u retries",
             owner_.name().c_str(), tag, unsigned(t.retries));
        log(firmware::Severity::unrecoverable,
            "command tag " + std::to_string(tag)
                + " reclaimed after retry exhaustion");
        client_.reclaimTag(tag);
        return;
    }
    ++t.retries;
    ++counters_.cmdRetries;
    client_.reissueAccess(tag);
}

void
CommandTags::disarm(unsigned tag)
{
    if (watchdogs_[tag].scheduled())
        owner_.eventq().deschedule(&watchdogs_[tag]);
}

bool
CommandTags::lineBusy(Addr line) const
{
    for (std::uint32_t held = holding_; held != 0; held &= held - 1)
        if (tags_[std::countr_zero(held)].line == line)
            return true;
    for (unsigned i = 0; i < numParked_; ++i)
        if (parked_[parkOrder_[i]].cmd.addr == line)
            return true;
    return false;
}

void
CommandTags::releaseLine(Addr line)
{
    // Execute the line's parked commands oldest first, up to and
    // including the first that holds the line again. Its hold is
    // taken before it executes, so if it completes at once its own
    // release carries the drain on.
    for (unsigned i = 0; i < numParked_;) {
        unsigned tag = parkOrder_[i];
        const Parked &p = parked_[tag];
        if (p.cmd.addr != line) {
            ++i;
            continue;
        }
        std::copy(parkOrder_.begin() + i + 1,
                  parkOrder_.begin() + numParked_,
                  parkOrder_.begin() + i);
        --numParked_;
        if (p.holdsLine) {
            holding_ |= bit(tag);
            tags_[tag].line = line;
        }
        client_.execute(p.cmd, p.aux);
        if (p.holdsLine)
            return;
    }
}

void
CommandTags::writeDrained(unsigned tag)
{
    writes_ &= ~bit(tag);
    unsigned kept = 0;
    for (unsigned i = 0; i < numFences_; ++i) {
        Fence f = fences_[i];
        f.waiting &= ~bit(tag);
        if (f.waiting != 0)
            fences_[kept++] = f;
        else
            client_.fenceDone(f.tag); // retires a flush: no fence work
    }
    numFences_ = kept;
}

void
CommandTags::powerReset()
{
    for (unsigned t = 0; t < numTags; ++t) {
        disarm(t);
        tags_[t].retries = 0;
        tags_[t].inFlight = false;
    }
    holding_ = 0;
    numParked_ = 0;
    numFences_ = 0;
    writes_ = 0;
}

void
CommandTags::checkpointSave(ckpt::Section &out) const
{
    ct_assert(idle());
    out.putU32(seqCounter_);
    out.putU32(stallBudget_);
    out.putU32(numTags);
    for (const Tag &t : tags_)
        out.putU32(t.seq);
}

void
CommandTags::checkpointRestore(ckpt::Section &in)
{
    ct_assert(idle());
    seqCounter_ = in.getU32();
    stallBudget_ = in.getU32();
    if (in.getU32() != numTags)
        throw ckpt::Error("command tag count mismatch");
    for (Tag &t : tags_)
        t.seq = in.getU32();
}

} // namespace contutto::dmi
