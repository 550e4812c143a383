#include "ras/watchdog.hh"

namespace contutto::ras
{

namespace
{

/** Sliding window over which replays are counted. */
constexpr Tick window = microseconds(2);
/** Replays within the window that constitute a storm. */
constexpr unsigned replayThreshold = 4;
/**
 * Minimum time between escalations, giving the previous
 * repair a chance to take effect before judging it failed.
 */
constexpr Tick cooldown = microseconds(10);
static_assert(window > 0 && replayThreshold > 0);

} // namespace

LinkWatchdog::LinkWatchdog(const std::string &name, EventQueue &eq,
                           const ClockDomain &domain,
                           stats::StatGroup *parent)
    : SimObject(name, eq, domain, parent),
      stats_{{this, "replaysObserved", "replay events seen"},
             {this, "stormsDetected",
              "windows exceeding the replay threshold"},
             {this, "retrains", "level-1 link retrains requested"},
             {this, "sparesActivated",
              "level-2 spare-lane activations"},
             {this, "degrades", "level-3 width degradations"},
             {this, "offlines", "level-4 channel offlines"}}
{}

void
LinkWatchdog::noteReplay()
{
    ++stats_.replaysObserved;
    Tick now = curTick();
    recent_.push_back(now);
    while (!recent_.empty()
           && recent_.front() + window < now)
        recent_.pop_front();
    if (recent_.size() < replayThreshold)
        return;
    ++stats_.stormsDetected;
    if (now < nextAllowed_)
        return; // previous repair still settling
    escalate();
}

void
LinkWatchdog::escalate()
{
    if (level_ >= 4)
        return; // already offline; nothing further to try
    ++level_;
    recent_.clear();
    nextAllowed_ = curTick() + cooldown;

    const char *what = "";
    firmware::Severity sev = firmware::Severity::info;
    switch (level_) {
      case 1:
        ++stats_.retrains;
        what = "replay storm: link retrain requested";
        sev = firmware::Severity::info;
        if (actions_.retrain)
            actions_.retrain();
        break;
      case 2:
        ++stats_.sparesActivated;
        what = "replay storm persists: spare lane activated";
        sev = firmware::Severity::recoverable;
        if (actions_.spareLane)
            actions_.spareLane();
        break;
      case 3:
        ++stats_.degrades;
        what = "spare exhausted: degraded-width operation";
        sev = firmware::Severity::recoverable;
        if (actions_.degrade)
            actions_.degrade();
        break;
      case 4:
        ++stats_.offlines;
        what = "link unusable: channel offline";
        sev = firmware::Severity::unrecoverable;
        if (actions_.offline)
            actions_.offline();
        break;
    }
    warn("%s: escalation level %u (%s)", name().c_str(), level_, what);
    if (errorLog_)
        errorLog_->record(curTick(), name(), sev, what);
}

void
LinkWatchdog::reset()
{
    recent_.clear();
    level_ = 0;
    nextAllowed_ = 0;
}

} // namespace contutto::ras
