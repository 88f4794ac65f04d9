/**
 * @file
 * Statistics framework implementation.
 */

#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace siopmp {
namespace stats {

void
Distribution::sample(double v)
{
    samples_.push_back(v);
    sorted_ = false;
}

void
Distribution::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
Distribution::min() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.front();
}

double
Distribution::max() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.back();
}

double
Distribution::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples_)
        sum += v;
    return sum / static_cast<double>(samples_.size());
}

double
Distribution::percentile(double pct) const
{
    SIOPMP_ASSERT(pct >= 0.0 && pct <= 100.0, "percentile out of range");
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    // Nearest-rank method.
    const auto n = samples_.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return samples_[rank - 1];
}

Histogram::Histogram(double lo, double width, std::size_t nbuckets)
    : lo_(lo), width_(width), buckets_(nbuckets, 0)
{
    SIOPMP_ASSERT(width > 0.0 && nbuckets > 0, "bad histogram shape");
}

void
Histogram::sample(double v)
{
    ++total_;
    if (v < lo_) {
        ++underflow_;
        return;
    }
    const auto idx =
        static_cast<std::size_t>((v - lo_) / width_);
    if (idx >= buckets_.size()) {
        ++overflow_;
        return;
    }
    ++buckets_[idx];
}

// ---- Group --------------------------------------------------------------

Group::Group(std::string name)
    : name_(std::move(name)), registry_(&Registry::global())
{
    registry_->add(this);
}

Group::Group(const Group &other)
    : name_(other.name_),
      scalars_(other.scalars_),
      averages_(other.averages_),
      distributions_(other.distributions_),
      histograms_(other.histograms_),
      order_(other.order_),
      registry_(nullptr)
{
}

Group::~Group()
{
    if (registry_ != nullptr)
        registry_->remove(this);
}

Scalar &
Group::scalar(const std::string &stat_name)
{
    auto [it, inserted] = scalars_.try_emplace(stat_name);
    if (inserted)
        order_.push_back("s:" + stat_name);
    return it->second;
}

Average &
Group::average(const std::string &stat_name)
{
    auto [it, inserted] = averages_.try_emplace(stat_name);
    if (inserted)
        order_.push_back("a:" + stat_name);
    return it->second;
}

Distribution &
Group::distribution(const std::string &stat_name)
{
    auto [it, inserted] = distributions_.try_emplace(stat_name);
    if (inserted)
        order_.push_back("d:" + stat_name);
    return it->second;
}

Histogram &
Group::histogram(const std::string &stat_name, double lo, double width,
                 std::size_t nbuckets)
{
    auto it = histograms_.find(stat_name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(stat_name, Histogram(lo, width, nbuckets))
                 .first;
        order_.push_back("h:" + stat_name);
    }
    return it->second;
}

void
Group::accept(StatsVisitor &visitor) const
{
    visitor.beginGroup(*this);
    for (const auto &key : order_) {
        const char kind = key[0];
        const std::string stat_name = key.substr(2);
        switch (kind) {
          case 's':
            visitor.visitScalar(*this, stat_name, scalars_.at(stat_name));
            break;
          case 'a':
            visitor.visitAverage(*this, stat_name,
                                 averages_.at(stat_name));
            break;
          case 'd':
            visitor.visitDistribution(*this, stat_name,
                                      distributions_.at(stat_name));
            break;
          case 'h':
            visitor.visitHistogram(*this, stat_name,
                                   histograms_.at(stat_name));
            break;
          default:
            panic("corrupt stat order tag '%c'", kind);
        }
    }
    visitor.endGroup(*this);
}

// ---- Registry -----------------------------------------------------------

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

void
Registry::add(Group *group)
{
    std::lock_guard<std::mutex> guard(mutex_);
    live_.push_back(group);
}

void
Registry::remove(Group *group)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = std::find(live_.begin(), live_.end(), group);
    if (it == live_.end())
        return;
    if (retain_ && !group->empty())
        retired_.push_back(std::make_unique<Group>(*group));
    live_.erase(it);
}

void
Registry::accept(StatsVisitor &visitor) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (const Group *group : live_)
        group->accept(visitor);
    for (const auto &group : retired_)
        group->accept(visitor);
}

// ---- TextStatsWriter ----------------------------------------------------

void
TextStatsWriter::visitScalar(const Group &group, const std::string &name,
                             const Scalar &s)
{
    os_ << group.name() << '.' << name << ' ' << s.value() << '\n';
}

void
TextStatsWriter::visitAverage(const Group &group, const std::string &name,
                              const Average &a)
{
    os_ << group.name() << '.' << name << ".mean " << a.mean() << '\n';
    os_ << group.name() << '.' << name << ".count " << a.count() << '\n';
}

void
TextStatsWriter::visitDistribution(const Group &group,
                                   const std::string &name,
                                   const Distribution &d)
{
    os_ << group.name() << '.' << name << ".p50 " << d.percentile(50)
        << '\n';
    os_ << group.name() << '.' << name << ".p99 " << d.percentile(99)
        << '\n';
    os_ << group.name() << '.' << name << ".count " << d.count() << '\n';
}

void
TextStatsWriter::visitHistogram(const Group &group, const std::string &name,
                                const Histogram &h)
{
    const std::string prefix = group.name() + '.' + name;
    os_ << prefix << ".samples " << h.totalSamples() << '\n';
    os_ << prefix << ".underflow " << h.underflow() << '\n';
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        os_ << prefix << ".bucket" << i << ' ' << h.bucketCount(i) << '\n';
    os_ << prefix << ".overflow " << h.overflow() << '\n';
}

// ---- JsonStatsWriter ----------------------------------------------------

JsonStatsWriter::JsonStatsWriter(std::ostream &os) : os_(os)
{
    os_ << "{\"groups\":[";
}

JsonStatsWriter::~JsonStatsWriter()
{
    finish();
}

void
JsonStatsWriter::beginGroup(const Group &group)
{
    SIOPMP_ASSERT(!finished_, "visit after finish()");
    os_ << (first_group_ ? "\n" : ",\n");
    first_group_ = false;
    os_ << "{\"name\":\"" << group.name() << "\",\"stats\":[";
    first_stat_ = true;
}

void
JsonStatsWriter::endGroup(const Group &)
{
    os_ << "]}";
}

void
JsonStatsWriter::stat(const std::string &name, const char *type)
{
    os_ << (first_stat_ ? "" : ",") << "\n {\"name\":\"" << name
        << "\",\"type\":\"" << type << '"';
    first_stat_ = false;
}

void
JsonStatsWriter::visitScalar(const Group &, const std::string &name,
                             const Scalar &s)
{
    stat(name, "scalar");
    os_ << ",\"value\":" << s.value() << '}';
}

void
JsonStatsWriter::visitAverage(const Group &, const std::string &name,
                              const Average &a)
{
    stat(name, "average");
    os_ << ",\"mean\":" << a.mean() << ",\"count\":" << a.count() << '}';
}

void
JsonStatsWriter::visitDistribution(const Group &, const std::string &name,
                                   const Distribution &d)
{
    stat(name, "distribution");
    os_ << ",\"p50\":" << d.percentile(50) << ",\"p99\":"
        << d.percentile(99) << ",\"min\":" << d.min() << ",\"max\":"
        << d.max() << ",\"count\":" << d.count() << '}';
}

void
JsonStatsWriter::visitHistogram(const Group &, const std::string &name,
                                const Histogram &h)
{
    stat(name, "histogram");
    os_ << ",\"lo\":" << h.lo() << ",\"width\":" << h.bucketWidth()
        << ",\"samples\":" << h.totalSamples() << ",\"underflow\":"
        << h.underflow() << ",\"overflow\":" << h.overflow()
        << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        os_ << (i ? "," : "") << h.bucketCount(i);
    os_ << "]}";
}

void
JsonStatsWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    os_ << "\n]}\n";
}

} // namespace stats
} // namespace siopmp
