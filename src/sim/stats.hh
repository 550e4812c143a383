/**
 * @file
 * A small statistics package in the spirit of gem5's.
 *
 * Models expose Scalar counters, Distributions (running
 * min/max/mean/stddev) and Histograms. Stats register themselves with
 * a StatGroup so a whole model tree can be dumped uniformly.
 */

#ifndef CONTUTTO_SIM_STATS_HH
#define CONTUTTO_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace contutto::stats
{

class StatGroup;

/** Base class for all statistics; handles naming and registration. */
class StatBase
{
  public:
    StatBase(StatGroup *group, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }

    /** Write a one-or-more-line textual report. */
    virtual void print(std::ostream &os,
                       const std::string &prefix) const = 0;

    /** The value as one JSON object. */
    virtual Json json() const = 0;

    /** Write json() to @p os as one line without a newline. */
    void json(std::ostream &os) const { os << json().dump(); }

    /** Restore the statistic to its just-constructed state. */
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A monotonically adjustable counter. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }

    void print(std::ostream &os, const std::string &prefix) const override;
    Json json() const override;
    void reset() override { value_ = 0; }

  private:
    double value_ = 0;
};

/**
 * A read-only stat computed on demand from a bound functor; reports
 * live model state (queue depths, pool hit rates, counters owned by
 * hot code that must not pay for stat objects) without mirroring it
 * into a Scalar on every update.
 */
class Value : public StatBase
{
  public:
    Value(StatGroup *group, std::string name, std::string desc,
          std::function<double()> fetch)
        : StatBase(group, std::move(name), std::move(desc)),
          fetch_(std::move(fetch))
    {
        ct_assert(fetch_ != nullptr);
    }

    double value() const { return fetch_(); }

    void print(std::ostream &os, const std::string &prefix) const override;
    Json json() const override;
    /** The source of truth lives in the model; nothing to reset. */
    void reset() override {}

  private:
    std::function<double()> fetch_;
};

/** Running min/max/mean/stddev over samples. */
class Distribution : public StatBase
{
  public:
    using StatBase::StatBase;

    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        // Welford's online update: numerically stable for
        // large-mean, small-variance sample streams, where the naive
        // sum-of-squares formula cancels catastrophically.
        double delta = v - runMean_;
        runMean_ += delta / double(count_);
        m2_ += delta * (v - runMean_);
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    double minimum() const { return count_ ? min_ : 0.0; }
    double maximum() const { return count_ ? max_ : 0.0; }

    /** Sample (n-1) standard deviation; 0 with fewer than 2 samples. */
    double
    stddev() const
    {
        if (count_ < 2)
            return 0.0;
        double var = m2_ / double(count_ - 1);
        return var > 0 ? std::sqrt(var) : 0.0;
    }

    void print(std::ostream &os, const std::string &prefix) const override;
    Json json() const override;

    void
    reset() override
    {
        count_ = 0;
        sum_ = runMean_ = m2_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    /**
     * @{ Verbatim accumulator capture for checkpointing
     * (sim/checkpoint.hh). The Welford terms are stored and restored
     * exactly — not recomputed — so a resumed run continues the same
     * floating-point sequence bit for bit.
     */
    struct Raw
    {
        std::uint64_t count = 0;
        double sum = 0;
        double runMean = 0;
        double m2 = 0;
        double min = 0;
        double max = 0;
    };

    Raw
    rawState() const
    {
        return Raw{count_, sum_, runMean_, m2_, min_, max_};
    }

    void
    setRawState(const Raw &r)
    {
        count_ = r.count;
        sum_ = r.sum;
        runMean_ = r.runMean;
        m2_ = r.m2;
        min_ = r.min;
        max_ = r.max;
    }
    /** @} */

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double runMean_ = 0; ///< Welford running mean.
    double m2_ = 0;      ///< Welford sum of squared deviations.
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-width bucketed histogram with overflow bucket. */
class Histogram : public StatBase
{
  public:
    Histogram(StatGroup *group, std::string name, std::string desc,
              double bucket_width, std::size_t num_buckets)
        : StatBase(group, std::move(name), std::move(desc)),
          width_(bucket_width), buckets_(num_buckets + 1, 0)
    {
        ct_assert(bucket_width > 0);
        ct_assert(num_buckets > 0);
    }

    void
    sample(double v)
    {
        dist_.sample(v);
        // Compare in floating point *before* converting: for huge
        // (or NaN) values the double -> size_t conversion itself is
        // undefined behaviour, not merely out of range.
        double pos = v / width_;
        std::size_t idx;
        if (!(pos >= 0))
            idx = 0; // negative or NaN
        else if (pos >= double(buckets_.size() - 1))
            idx = buckets_.size() - 1; // overflow bucket
        else
            idx = std::size_t(pos);
        ++buckets_[idx];
    }

    std::uint64_t count() const { return dist_.count(); }
    double mean() const { return dist_.mean(); }
    double maximum() const { return dist_.maximum(); }
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }
    double bucketWidth() const { return width_; }

    /**
     * Smallest value v such that at least q of the mass is <= v.
     * An empty histogram has no quantiles: returns quiet NaN (the
     * documented sentinel; test with std::isnan). When the target
     * mass falls in the overflow bucket the largest observed sample
     * is returned, since the bucket has no finite upper edge.
     */
    double quantile(double q) const;

    void print(std::ostream &os, const std::string &prefix) const override;
    Json json() const override;

    void
    reset() override
    {
        std::fill(buckets_.begin(), buckets_.end(), 0);
        dist_.reset();
    }

    /** @{ Verbatim state capture for checkpointing; see
     *  Distribution::Raw. Bucket layout must match at restore. */
    struct Raw
    {
        std::vector<std::uint64_t> buckets;
        std::uint64_t count = 0;
        double sum = 0;
        double min = 0;
        double max = 0;
    };

    Raw
    rawState() const
    {
        return Raw{buckets_, dist_.count_, dist_.sum_, dist_.min_,
                   dist_.max_};
    }

    void
    setRawState(const Raw &r)
    {
        ct_assert(r.buckets.size() == buckets_.size());
        buckets_ = r.buckets;
        dist_.count_ = r.count;
        dist_.sum_ = r.sum;
        dist_.min_ = r.min;
        dist_.max_ = r.max;
    }
    /** @} */

  private:
    double width_;
    std::vector<std::uint64_t> buckets_;
    /** Anonymous distribution for the moment summary. */
    class AnonDist
    {
      public:
        void
        sample(double v)
        {
            ++count_;
            sum_ += v;
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        std::uint64_t count() const { return count_; }
        double mean() const
        {
            return count_ ? sum_ / double(count_) : 0.0;
        }
        double minimum() const { return count_ ? min_ : 0.0; }
        double maximum() const { return count_ ? max_ : 0.0; }
        void
        reset()
        {
            count_ = 0;
            sum_ = 0;
            min_ = std::numeric_limits<double>::infinity();
            max_ = -std::numeric_limits<double>::infinity();
        }

      private:
        friend class Histogram; ///< raw checkpoint capture.
        std::uint64_t count_ = 0;
        double sum_ = 0;
        double min_ = std::numeric_limits<double>::infinity();
        double max_ = -std::numeric_limits<double>::infinity();
    } dist_;
};

/**
 * A named collection of statistics; groups nest to form the model
 * tree.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &groupName() const { return name_; }

    /** Dump this group and all children to @p os. */
    void printStats(std::ostream &os, const std::string &prefix = "") const;

    /** Reset this group's stats and all children's. */
    void resetStats();

    /** Find a stat by name in this group only; null if absent. */
    const StatBase *findStat(const std::string &name) const;

    /** Direct child groups, in registration order. */
    const std::vector<StatGroup *> &children() const
    {
        return children_;
    }

    /** Stats registered directly on this group, brought up to date
     *  by preRead() first. Every reader of the tree comes here. */
    const std::vector<StatBase *> &
    ownStats() const
    {
        preRead();
        return stats_;
    }

  protected:
    /**
     * Pre-read hook: a model whose counters settle lazily (see
     * dmi::DmiChannel) overrides this to settle them before any
     * read. Const because reading stats is; the default does
     * nothing.
     */
    virtual void preRead() const {}

  private:
    friend class StatBase;

    std::string name_;
    StatGroup *parent_ = nullptr;
    std::vector<StatBase *> stats_;
    std::vector<StatGroup *> children_;
};

/**
 * @p group and its whole subtree as one JSON object:
 * {"name": <leaf>, "stats": {<stat>: {...}}, "groups": [...]}.
 * Numbers follow Json::number's rule, so non-finite values (the
 * empty-histogram quantile sentinel) become null and the output is
 * always strictly valid JSON.
 */
Json toJson(const StatGroup &group);

/** Write toJson(@p group).dump() to @p os (no trailing newline). */
void toJson(const StatGroup &group, std::ostream &os);

} // namespace contutto::stats

#endif // CONTUTTO_SIM_STATS_HH
