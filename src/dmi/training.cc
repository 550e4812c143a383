#include "dmi/training.hh"

namespace contutto::dmi
{

namespace
{

/** Number of FRTL probes; the max is kept. */
constexpr unsigned frtlProbes = 4;
static_assert(frtlProbes > 0);

} // namespace

LinkTrainer::LinkTrainer(const std::string &name, EventQueue &eq,
                         const ClockDomain &domain,
                         stats::StatGroup *parent, const Params &params,
                         HostLink &host, BufferLink &buffer,
                         DmiChannel &down, DmiChannel &up)
    : SimObject(name, eq, domain, parent), params_(params), host_(host),
      buffer_(buffer), down_(down), up_(up), rng_(params.seed),
      timeoutEvent_([this] { onTimeout(); }, name + ".timeout"),
      stats_{{this, "runs", "training runs completed"},
             {this, "failures", "training runs that failed"},
             {this, "alignAttempts", "alignment probes sent"},
             {this, "frtlMeasured",
              "frame round-trip latency measured by training (ns)"}}
{}

LinkTrainer::~LinkTrainer()
{
    if (timeoutEvent_.scheduled())
        eventq().deschedule(&timeoutEvent_);
}

std::uint32_t
LinkTrainer::pack(Op op, std::uint32_t nonce)
{
    return (std::uint32_t(op) << 24) | (nonce & 0xFFFFFF);
}

void
LinkTrainer::start(std::function<void(const TrainingResult &)> done)
{
    ct_assert(state_ == State::idle);
    done_ = std::move(done);
    result_ = TrainingResult{};
    host_.onTrainSig = [this](std::uint32_t s) { hostSigArrived(s); };
    buffer_.onTrainSig = [this](std::uint32_t s) { bufferSigArrived(s); };
    state_ = State::bitAlign;
    phaseAttempts_ = 0;
    sendPhaseProbe();
}

void
LinkTrainer::sendPhaseProbe()
{
    nonce_ = std::uint32_t(rng_.below(1u << 24));
    Op op;
    switch (state_) {
      case State::bitAlign: op = opPatternA; break;
      case State::wordAlign: op = opPatternB; break;
      case State::frameAlign: op = opPatternC; break;
      case State::frtl: op = opFrtlProbe; break;
      default:
        panic("probe in bad training state");
    }
    ++phaseAttempts_;
    ++result_.attempts;
    probeSentAt_ = curTick();
    host_.sendTrainFrame(pack(op, nonce_));
    eventq().reschedule(&timeoutEvent_,
                        curTick() + params_.responseTimeout);
}

void
LinkTrainer::bufferSigArrived(std::uint32_t sig)
{
    // This models the buffer-side training logic: alignment patterns
    // lock with some probability (real links need analog tuning and
    // often retry, paper §3.4); FRTL probes are always echoed.
    Op op = Op(sig >> 24);
    std::uint32_t nonce = sig & 0xFFFFFF;
    switch (op) {
      case opPatternA:
      case opPatternB:
      case opPatternC:
        if (rng_.chance(params_.lockProbability))
            buffer_.sendTrainFrame(pack(opLockAck, nonce));
        break;
      case opFrtlProbe:
        buffer_.sendTrainFrame(pack(opFrtlEcho, nonce));
        break;
      default:
        break; // host-directed opcodes; ignore
    }
}

void
LinkTrainer::hostSigArrived(std::uint32_t sig)
{
    Op op = Op(sig >> 24);
    std::uint32_t nonce = sig & 0xFFFFFF;
    if (nonce != nonce_)
        return; // stale response from an earlier attempt

    switch (state_) {
      case State::bitAlign:
      case State::wordAlign:
      case State::frameAlign:
        if (op == opLockAck)
            advancePhase();
        break;
      case State::frtl:
        if (op == opFrtlEcho) {
            Tick rtt = curTick() - probeSentAt_;
            frtlMax_ = std::max(frtlMax_, rtt);
            if (++probesDone_ >= frtlProbes) {
                result_.frtl = frtlMax_;
                if (frtlMax_ > params_.maxFrtl) {
                    finish(false,
                           "FRTL exceeds processor maximum ("
                               + std::to_string(frtlMax_) + " > "
                               + std::to_string(params_.maxFrtl)
                               + " ps)");
                } else {
                    advancePhase();
                }
            } else {
                sendPhaseProbe();
            }
        }
        break;
      default:
        break;
    }
}

void
LinkTrainer::advancePhase()
{
    if (timeoutEvent_.scheduled())
        eventq().deschedule(&timeoutEvent_);
    phaseAttempts_ = 0;
    switch (state_) {
      case State::bitAlign:
        state_ = State::wordAlign;
        sendPhaseProbe();
        break;
      case State::wordAlign:
        state_ = State::frameAlign;
        sendPhaseProbe();
        break;
      case State::frameAlign:
        state_ = State::frtl;
        probesDone_ = 0;
        frtlMax_ = 0;
        sendPhaseProbe();
        break;
      case State::frtl:
        finish(true, "");
        break;
      default:
        panic("advance from bad training state");
    }
}

void
LinkTrainer::onTimeout()
{
    if (state_ == State::idle || state_ == State::done)
        return;
    if (phaseAttempts_ >= params_.maxAttemptsPerPhase) {
        finish(false, "alignment failed after "
                          + std::to_string(phaseAttempts_)
                          + " attempts");
    } else {
        sendPhaseProbe();
    }
}

void
LinkTrainer::finish(bool success, const std::string &reason)
{
    if (timeoutEvent_.scheduled())
        eventq().deschedule(&timeoutEvent_);
    result_.success = success;
    result_.failReason = reason;
    ++stats_.runs;
    if (!success)
        ++stats_.failures;
    stats_.alignAttempts += double(result_.attempts);
    if (success)
        stats_.frtlMeasured.sample(ticksToNs(result_.frtl));
    state_ = State::idle;
    host_.onTrainSig = nullptr;
    buffer_.onTrainSig = nullptr;
    if (success) {
        // Both ends reset sequence state and re-seed scramblers; the
        // link is now up for functional traffic.
        host_.resetLink();
        buffer_.resetLink();
        down_.reseedScramblers();
        up_.reseedScramblers();
    }
    if (done_)
        done_(result_);
}

} // namespace contutto::dmi
