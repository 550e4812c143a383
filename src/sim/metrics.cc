#include "sim/metrics.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace contutto::metrics
{

Histogram::Histogram(std::vector<std::uint64_t> le)
    : le_(std::move(le)), buckets_(le_.size() + 1)
{
    ct_assert(!le_.empty());
    for (std::size_t i = 1; i < le_.size(); ++i)
        ct_assert(le_[i] > le_[i - 1]);
}

void
Histogram::observe(std::uint64_t v)
{
    // First bucket whose inclusive upper bound covers v; +Inf
    // otherwise. The edge list is small (tens), but binary search
    // keeps the hot path flat even for fine-grained layouts.
    auto it = std::lower_bound(le_.begin(), le_.end(), v);
    std::size_t idx = std::size_t(it - le_.begin());
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

namespace
{

template <typename T, typename Vec>
T *
findNamed(Vec &vec, const std::string &name)
{
    for (auto &n : vec)
        if (n.name == name)
            return n.metric.get();
    return nullptr;
}

bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                  || (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            return false;
    }
    return !(name[0] >= '0' && name[0] <= '9');
}

} // namespace

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help)
{
    ct_assert(validName(name));
    std::lock_guard<std::mutex> lk(mtx_);
    if (Counter *c = findNamed<Counter>(counters_, name))
        return *c;
    counters_.push_back({name, help, std::make_unique<Counter>()});
    return *counters_.back().metric;
}

Gauge &
MetricsRegistry::gauge(const std::string &name,
                       const std::string &help)
{
    ct_assert(validName(name));
    std::lock_guard<std::mutex> lk(mtx_);
    if (Gauge *g = findNamed<Gauge>(gauges_, name))
        return *g;
    gauges_.push_back({name, help, std::make_unique<Gauge>()});
    return *gauges_.back().metric;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           std::vector<std::uint64_t> le)
{
    ct_assert(validName(name));
    std::lock_guard<std::mutex> lk(mtx_);
    if (Histogram *h = findNamed<Histogram>(histograms_, name)) {
        ct_assert(h->edges() == le);
        return *h;
    }
    histograms_.push_back(
        {name, help, std::make_unique<Histogram>(std::move(le))});
    return *histograms_.back().metric;
}

Snapshot
MetricsRegistry::snapshot() const
{
    Snapshot s;
    std::lock_guard<std::mutex> lk(mtx_);
    s.counters.reserve(counters_.size());
    for (const auto &c : counters_)
        s.counters.push_back({c.name, c.help, c.metric->value()});
    s.gauges.reserve(gauges_.size());
    for (const auto &g : gauges_)
        s.gauges.push_back({g.name, g.help, g.metric->value()});
    s.histograms.reserve(histograms_.size());
    for (const auto &h : histograms_) {
        HistogramSample hs;
        hs.name = h.name;
        hs.help = h.help;
        hs.le = h.metric->edges();
        hs.buckets = h.metric->bucketCounts();
        // Derive the count from the buckets just read, so count
        // and buckets are coherent within this snapshot even while
        // writers race the read.
        for (std::uint64_t b : hs.buckets)
            hs.count += b;
        hs.sum = h.metric->sum();
        s.histograms.push_back(std::move(hs));
    }
    return s;
}

std::string
MetricsRegistry::prometheusText() const
{
    Snapshot s = snapshot();
    std::ostringstream os;
    for (const CounterSample &c : s.counters) {
        os << "# HELP " << c.name << " " << c.help << "\n";
        os << "# TYPE " << c.name << " counter\n";
        os << c.name << " " << c.value << "\n";
    }
    for (const GaugeSample &g : s.gauges) {
        os << "# HELP " << g.name << " " << g.help << "\n";
        os << "# TYPE " << g.name << " gauge\n";
        os << g.name << " " << g.value << "\n";
    }
    for (const HistogramSample &h : s.histograms) {
        os << "# HELP " << h.name << " " << h.help << "\n";
        os << "# TYPE " << h.name << " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.le.size(); ++i) {
            cum += h.buckets[i];
            os << h.name << "_bucket{le=\"" << h.le[i] << "\"} "
               << cum << "\n";
        }
        cum += h.buckets.back();
        os << h.name << "_bucket{le=\"+Inf\"} " << cum << "\n";
        os << h.name << "_sum " << h.sum << "\n";
        os << h.name << "_count " << h.count << "\n";
    }
    return os.str();
}

const CounterSample *
Snapshot::counter(const std::string &name) const
{
    for (const CounterSample &c : counters)
        if (c.name == name)
            return &c;
    return nullptr;
}

const GaugeSample *
Snapshot::gauge(const std::string &name) const
{
    for (const GaugeSample &g : gauges)
        if (g.name == name)
            return &g;
    return nullptr;
}

const HistogramSample *
Snapshot::histogram(const std::string &name) const
{
    for (const HistogramSample &h : histograms)
        if (h.name == name)
            return &h;
    return nullptr;
}

std::uint64_t
Snapshot::counterValue(const std::string &name,
                       std::uint64_t def) const
{
    const CounterSample *c = counter(name);
    return c ? c->value : def;
}

} // namespace contutto::metrics
