/**
 * @file
 * DMI link watchdog: replay-storm detection and escalation.
 *
 * Sporadic CRC errors are business as usual on a multi-gigabit link —
 * the replay protocol absorbs them silently. A *storm* of replays in
 * a short window means something is broken: a marginal lane, a failed
 * retrain, persistent interference. The watchdog counts replays in a
 * sliding window and escalates through the repair ladder the paper
 * attributes to the link hardware and service processor (§2.2, §3.2):
 *
 *   level 1  retrain the link          (info)
 *   level 2  activate the spare lane   (recoverable)
 *   level 3  degraded-width operation  (recoverable)
 *   level 4  channel offline           (unrecoverable)
 *
 * Actions are injected as callbacks so the watchdog composes with any
 * channel topology; every escalation lands in the firmware ErrorLog
 * with its severity.
 */

#ifndef CONTUTTO_RAS_WATCHDOG_HH
#define CONTUTTO_RAS_WATCHDOG_HH

#include <deque>
#include <functional>

#include "firmware/error_log.hh"
#include "sim/sim_object.hh"

namespace contutto::ras
{

/** Watches one link's replay rate and escalates on storms. */
class LinkWatchdog : public SimObject
{
  public:
    /** Repair actions, one per escalation level. */
    struct Actions
    {
        std::function<void()> retrain;
        std::function<void()> spareLane;
        std::function<void()> degrade;
        std::function<void()> offline;
    };

    LinkWatchdog(const std::string &name, EventQueue &eq,
                 const ClockDomain &domain, stats::StatGroup *parent);

    void setActions(Actions actions) { actions_ = std::move(actions); }

    void attachErrorLog(firmware::ErrorLog *log) { errorLog_ = log; }

    /** Feed from LinkEndpoint::onReplay. */
    void noteReplay();

    /** 0 = healthy; 1..4 = highest repair level reached. */
    unsigned escalationLevel() const { return level_; }

    /** Declare the link healthy again (e.g. after manual repair). */
    void reset();

    struct WatchdogStats
    {
        stats::Scalar replaysObserved;
        stats::Scalar stormsDetected;
        stats::Scalar retrains;
        stats::Scalar sparesActivated;
        stats::Scalar degrades;
        stats::Scalar offlines;
    };

    const WatchdogStats &watchdogStats() const { return stats_; }

  private:
    void escalate();

    Actions actions_;
    firmware::ErrorLog *errorLog_ = nullptr;
    std::deque<Tick> recent_; ///< Replay times inside the window.
    unsigned level_ = 0;
    Tick nextAllowed_ = 0;    ///< Cooldown gate for escalations.
    WatchdogStats stats_;
};

} // namespace contutto::ras

#endif // CONTUTTO_RAS_WATCHDOG_HH
