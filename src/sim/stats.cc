#include "sim/stats.hh"

#include <algorithm>

namespace contutto::stats
{

StatBase::StatBase(StatGroup *group, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    ct_assert(group != nullptr);
    group->stats_.push_back(this);
}

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " " << value_ << "  # " << description()
       << "\n";
}

void
Value::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " " << value() << "  # " << description()
       << "\n";
}

Json
Value::json() const
{
    Json j = Json::object();
    j.set("kind", Json::string("value"));
    j.set("value", Json::number(value()));
    return j;
}

void
Distribution::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " count=" << count_ << " mean=" << mean()
       << " min=" << minimum() << " max=" << maximum()
       << " stddev=" << stddev() << "  # " << description() << "\n";
}

double
Histogram::quantile(double q) const
{
    ct_assert(q >= 0.0 && q <= 1.0);
    std::uint64_t total = dist_.count();
    if (total == 0)
        return std::numeric_limits<double>::quiet_NaN();
    // ceil(q * total) samples must lie at or below the answer.
    std::uint64_t target = std::uint64_t(std::ceil(q * double(total)));
    if (target == 0)
        target = 1;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cum += buckets_[i];
        if (cum >= target) {
            if (i == buckets_.size() - 1)
                return dist_.maximum(); // overflow bucket
            return double(i + 1) * width_; // upper edge of bucket
        }
    }
    return dist_.maximum();
}

void
Histogram::print(std::ostream &os, const std::string &prefix) const
{
    if (dist_.count() == 0) {
        // No samples: the quantile sentinel is NaN, which would
        // print as "nan"; report the emptiness explicitly instead.
        os << prefix << name() << " count=0 p50=- p99=-  # "
           << description() << "\n";
        return;
    }
    os << prefix << name() << " count=" << dist_.count()
       << " mean=" << dist_.mean() << " p50=" << quantile(0.5)
       << " p99=" << quantile(0.99) << " max=" << dist_.maximum()
       << "  # " << description() << "\n";
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.push_back(this);
}

StatGroup::~StatGroup()
{
    if (parent_) {
        auto &sibs = parent_->children_;
        sibs.erase(std::remove(sibs.begin(), sibs.end(), this),
                   sibs.end());
    }
}

void
StatGroup::printStats(std::ostream &os, const std::string &prefix) const
{
    // Components carry their full hierarchical debug name (e.g.
    // "chan0.contutto.mbi"); the tree walk supplies the ancestry, so
    // only the leaf segment goes into the printed path.
    auto dot = name_.rfind('.');
    std::string leaf =
        dot == std::string::npos ? name_ : name_.substr(dot + 1);
    std::string p = prefix + leaf + ".";
    for (const StatBase *s : ownStats())
        s->print(os, p);
    for (const StatGroup *g : children_)
        g->printStats(os, p);
}

void
StatGroup::resetStats()
{
    // Settle first, so work done before the reset is not counted
    // after it.
    for (StatBase *s : ownStats())
        s->reset();
    for (StatGroup *g : children_)
        g->resetStats();
}

const StatBase *
StatGroup::findStat(const std::string &name) const
{
    for (const StatBase *s : ownStats())
        if (s->name() == name)
            return s;
    return nullptr;
}

Json
Scalar::json() const
{
    Json j = Json::object();
    j.set("kind", Json::string("scalar"));
    j.set("value", Json::number(value_));
    return j;
}

Json
Distribution::json() const
{
    Json j = Json::object();
    j.set("kind", Json::string("distribution"));
    j.set("count", Json::number(count_));
    j.set("sum", Json::number(sum()));
    j.set("mean", Json::number(mean()));
    j.set("min", Json::number(minimum()));
    j.set("max", Json::number(maximum()));
    j.set("stddev", Json::number(stddev()));
    return j;
}

Json
Histogram::json() const
{
    Json j = Json::object();
    j.set("kind", Json::string("histogram"));
    j.set("count", Json::number(dist_.count()));
    j.set("mean", Json::number(dist_.mean()));
    j.set("min", Json::number(dist_.minimum()));
    j.set("max", Json::number(dist_.maximum()));
    j.set("p50", Json::number(quantile(0.5)));
    j.set("p99", Json::number(quantile(0.99)));
    j.set("bucketWidth", Json::number(width_));
    // Explicit upper bucket edges, one per bucket, so stats-JSON
    // consumers and the Prometheus exposition (sim/metrics.hh) agree
    // on boundaries without re-deriving them from bucketWidth. The
    // overflow bucket has no finite edge: null, the +Inf marker.
    Json le = Json::array();
    Json buckets = Json::array();
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        le.append(i + 1 == buckets_.size()
                      ? Json::makeNull()
                      : Json::number(double(i + 1) * width_));
        buckets.append(Json::number(buckets_[i]));
    }
    j.set("le", std::move(le));
    j.set("buckets", std::move(buckets));
    return j;
}

Json
toJson(const StatGroup &group)
{
    const std::string &full = group.groupName();
    auto dot = full.rfind('.');
    Json j = Json::object();
    j.set("name", Json::string(dot == std::string::npos
                                   ? full
                                   : full.substr(dot + 1)));
    Json stats = Json::object();
    for (const StatBase *s : group.ownStats())
        stats.set(s->name(), s->json());
    j.set("stats", std::move(stats));
    Json groups = Json::array();
    for (const StatGroup *g : group.children())
        groups.append(toJson(*g));
    j.set("groups", std::move(groups));
    return j;
}

void
toJson(const StatGroup &group, std::ostream &os)
{
    os << toJson(group).dump();
}

} // namespace contutto::stats
