#include "accel/accelerators.hh"

#include <cmath>
#include <cstring>
#include <numbers>

namespace contutto::accel
{

namespace
{

/** FFT size: 1024 complex-float points per batch. */
constexpr unsigned points = 1024;
static_assert((points & (points - 1)) == 0);
/** Internal pipelines computing concurrently. */
constexpr unsigned pipelines = 6;
/** Compute occupancy per batch, fabric cycles (pipelined butterfly
 *  array: ~N + drain). */
constexpr unsigned computeCycles = 1100;
/** Output FIFO capacity in lines. */
constexpr std::size_t outFifoCapacity = 256;

} // namespace

void
MinMaxUnit::reset(const ControlBlock &)
{
    any_ = false;
    min_ = max_ = 0;
    values_ = 0;
}

bool
MinMaxUnit::pushInput(const dmi::CacheLine &line)
{
    // Processes a full line per cycle on-the-fly; never backpressures
    // at the rates the Access processor can feed it.
    for (std::size_t off = 0; off < line.size(); off += 4) {
        std::int32_t v;
        std::memcpy(&v, line.data() + off, 4);
        if (!any_) {
            min_ = max_ = v;
            any_ = true;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        ++values_;
    }
    return true;
}

void
MinMaxUnit::finalize(ControlBlock &cb)
{
    cb.resultMin = min_;
    cb.resultMax = max_;
    cb.linesProcessed = values_ / (dmi::cacheLineSize / 4);
}

FftUnit::FftUnit(const std::string &name, EventQueue &eq,
                 const ClockDomain &domain, stats::StatGroup *parent)
    : AcceleratorUnit(name, eq, domain, parent), pipes_(pipelines)
{}

void
FftUnit::fft(std::vector<std::complex<float>> &data)
{
    const std::size_t n = data.size();
    ct_assert((n & (n - 1)) == 0);

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }

    // Iterative radix-2 butterflies.
    for (std::size_t len = 2; len <= n; len <<= 1) {
        float angle = -2.0f * std::numbers::pi_v<float>
            / float(len);
        std::complex<float> wlen(std::cos(angle), std::sin(angle));
        for (std::size_t i = 0; i < n; i += len) {
            std::complex<float> w(1.0f, 0.0f);
            for (std::size_t k = 0; k < len / 2; ++k) {
                std::complex<float> u = data[i + k];
                std::complex<float> v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
}

void
FftUnit::reset(const ControlBlock &)
{
    for (Pipeline &p : pipes_)
        p = Pipeline{};
    filling_.clear();
    nextSequence_ = 0;
    nextEmit_ = 0;
    doneBatches_.clear();
    outFifo_.clear();
    batchesComputed_ = 0;
}

bool
FftUnit::pushInput(const dmi::CacheLine &line)
{
    // Find a free pipeline to assign the batch under construction
    // to; if all pipelines are busy and a new batch would start,
    // backpressure the Access processor.
    if (filling_.empty()) {
        bool any_free = false;
        for (const Pipeline &p : pipes_)
            if (!p.busy)
                any_free = true;
        if (!any_free)
            return false;
    }
    if (outFifo_.size() + doneBatches_.size() * points
            / (dmi::cacheLineSize / 8)
        >= outFifoCapacity)
        return false;

    for (std::size_t off = 0; off < line.size(); off += 8) {
        float re, im;
        std::memcpy(&re, line.data() + off, 4);
        std::memcpy(&im, line.data() + off + 4, 4);
        filling_.emplace_back(re, im);
    }

    if (filling_.size() >= points) {
        for (unsigned pi = 0; pi < pipes_.size(); ++pi) {
            Pipeline &p = pipes_[pi];
            if (p.busy)
                continue;
            p.busy = true;
            p.samples = std::move(filling_);
            filling_.clear();
            p.sequence = nextSequence_++;
            OneShotEvent::schedule(
                eventq(), clockEdge(computeCycles),
                [this, pi] { batchDone(pi); });
            break;
        }
    }
    return true;
}

void
FftUnit::batchDone(unsigned pipe)
{
    Pipeline &p = pipes_[pipe];
    ct_assert(p.busy);
    fft(p.samples);
    doneBatches_[p.sequence] = std::move(p.samples);
    p.samples.clear();
    p.busy = false;
    ++batchesComputed_;
    drainReorder();
}

void
FftUnit::drainReorder()
{
    // Emit completed batches in order as lines.
    for (auto it = doneBatches_.begin();
         it != doneBatches_.end() && it->first == nextEmit_;) {
        const auto &samples = it->second;
        for (std::size_t s = 0; s < samples.size();
             s += dmi::cacheLineSize / 8) {
            dmi::CacheLine line{};
            for (std::size_t k = 0; k < dmi::cacheLineSize / 8; ++k) {
                float re = samples[s + k].real();
                float im = samples[s + k].imag();
                std::memcpy(line.data() + k * 8, &re, 4);
                std::memcpy(line.data() + k * 8 + 4, &im, 4);
            }
            outFifo_.push_back(line);
        }
        ++nextEmit_;
        it = doneBatches_.erase(it);
    }
}

bool
FftUnit::popOutput(dmi::CacheLine &line)
{
    if (outFifo_.empty())
        return false;
    line = outFifo_.front();
    outFifo_.pop_front();
    return true;
}

bool
FftUnit::busy() const
{
    if (!outFifo_.empty() || !doneBatches_.empty())
        return true;
    for (const Pipeline &p : pipes_)
        if (p.busy)
            return true;
    return false;
}

void
FftUnit::finalize(ControlBlock &cb)
{
    cb.linesProcessed = std::uint64_t(batchesComputed_)
        * points / (dmi::cacheLineSize / 8);
}

} // namespace contutto::accel
