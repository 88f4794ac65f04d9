/**
 * @file
 * Statistics framework: named scalar counters, averages, histograms and
 * percentile distributions, grouped per component.
 *
 * Groups self-register with the process-wide stats::Registry at
 * construction and retire at destruction, so any consumer — the CLI's
 * --stats-json, a test, a bench harness — can enumerate every live
 * group without threading pointers through the object graph. Output is
 * decoupled from the stat containers through the StatsVisitor
 * interface; TextStatsWriter reproduces the classic "group.stat value"
 * line format and JsonStatsWriter emits a machine-readable document
 * with identical coverage.
 */

#ifndef SIM_STATS_HH
#define SIM_STATS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace siopmp {
namespace stats {

/**
 * Monotonically increasing counter: a plain double, single-threaded by
 * contract. A component's counters are only touched by the thread
 * running its simulation; sharded tools (siopmp_fuzz --jobs) give each
 * worker its own component tree.
 */
class Scalar
{
  public:
    Scalar &operator++() { value_ += 1.0; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Running average (mean of samples). */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Full-sample distribution supporting exact percentiles. Used for
 * latency statistics (memcached p50/p99). Stores every sample; callers
 * that need bounded memory should use Histogram instead.
 */
class Distribution
{
  public:
    void sample(double v);

    std::uint64_t count() const { return samples_.size(); }
    double min() const;
    double max() const;
    double mean() const;

    /** Exact percentile in [0, 100] by nearest-rank on sorted samples. */
    double percentile(double pct) const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/** Fixed-bucket histogram. */
class Histogram
{
  public:
    /** Buckets: [lo, lo+width), [lo+width, ...), plus under/overflow. */
    Histogram(double lo, double width, std::size_t nbuckets);

    void sample(double v);

    double lo() const { return lo_; }
    double bucketWidth() const { return width_; }
    std::uint64_t bucketCount(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t totalSamples() const { return total_; }

  private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

class Group;

/**
 * Double-dispatch interface over a Group's stats. A visitor receives
 * every registered stat of every visited group in registration order;
 * writers (text, JSON) are visitors, as is anything that aggregates,
 * diffs or uploads stats.
 */
class StatsVisitor
{
  public:
    virtual ~StatsVisitor() = default;

    virtual void beginGroup(const Group &group) { (void)group; }
    virtual void endGroup(const Group &group) { (void)group; }

    virtual void visitScalar(const Group &group, const std::string &name,
                             const Scalar &s) = 0;
    virtual void visitAverage(const Group &group, const std::string &name,
                              const Average &a) = 0;
    virtual void visitDistribution(const Group &group,
                                   const std::string &name,
                                   const Distribution &d) = 0;
    virtual void visitHistogram(const Group &group, const std::string &name,
                                const Histogram &h) = 0;
};

class Registry;

/**
 * A named group of statistics owned by a component. Stats are
 * registered lazily by name and visited in registration order. The
 * group adds itself to Registry::global() on construction and removes
 * itself on destruction; copies are detached (never registered) — the
 * registry uses them to snapshot retiring groups.
 */
class Group
{
  public:
    explicit Group(std::string name);

    /** Detached copy: same name and stat values, not registered. */
    Group(const Group &other);
    Group &operator=(const Group &) = delete;

    ~Group();

    /** Register (or fetch) a named scalar. */
    Scalar &scalar(const std::string &stat_name);

    /** Register (or fetch) a named average. */
    Average &average(const std::string &stat_name);

    /** Register (or fetch) a named distribution. */
    Distribution &distribution(const std::string &stat_name);

    /** Register (or fetch) a named histogram; the shape parameters
     * apply only on first registration. */
    Histogram &histogram(const std::string &stat_name, double lo,
                         double width, std::size_t nbuckets);

    const std::string &name() const { return name_; }

    /** True iff no stat has been registered yet (quiet component). */
    bool empty() const { return order_.empty(); }

    /** Visit every stat in registration order (between begin/endGroup). */
    void accept(StatsVisitor &visitor) const;

  private:
    std::string name_;
    std::map<std::string, Scalar> scalars_;
    std::map<std::string, Average> averages_;
    std::map<std::string, Distribution> distributions_;
    std::map<std::string, Histogram> histograms_;
    std::vector<std::string> order_; // "s:" / "a:" / "d:" / "h:" + name
    Registry *registry_ = nullptr;   //!< null for detached copies
};

/**
 * A named Scalar or Average of a group, registered on first use.
 * Per-event call sites hold one instead of calling Group::scalar(name)
 * or Group::average(name) per event: the first update registers the
 * stat, so a dump still lists only the stats that were updated, in
 * first-update order, and later updates skip the name lookup. (Binding
 * in the owner's constructor would list never-updated stats and
 * reorder the group.)
 */
template <typename Stat>
class LazyStat
{
  public:
    LazyStat(Group &group, const char *stat_name)
        : group_(group), name_(stat_name)
    {
    }

    LazyStat &operator++() { ++get(); return *this; }
    LazyStat &operator+=(double v) { get() += v; return *this; }
    void sample(double v) { get().sample(v); }

  private:
    Stat &
    get()
    {
        if (stat_ == nullptr) {
            if constexpr (std::is_same_v<Stat, Average>)
                stat_ = &group_.average(name_);
            else
                stat_ = &group_.scalar(name_);
        }
        return *stat_;
    }

    Group &group_;
    const char *name_;
    Stat *stat_ = nullptr;
};

using LazyScalar = LazyStat<Scalar>;
using LazyAverage = LazyStat<Average>;

/**
 * Process-wide registry of live stat groups, in construction order.
 * With retention enabled (setRetainRetired), a destructing group
 * leaves a final-value snapshot behind, so a consumer like the CLI's
 * --stats-json can report on components that died with their Soc
 * before the dump point.
 *
 * Registration is mutex-protected: sharded tools (siopmp_fuzz --jobs)
 * construct and destruct whole component trees on worker threads, and
 * every Group ctor/dtor lands here. The stat *values* stay
 * unsynchronized — each worker only touches groups it owns, and
 * accept() is only meaningful once workers have joined.
 */
class Registry
{
  public:
    static Registry &global();

    void add(Group *group);
    void remove(Group *group);

    /** Visit every live group, then every retained snapshot. */
    void accept(StatsVisitor &visitor) const;

    /** Keep final-value snapshots of destructed groups. */
    void setRetainRetired(bool retain) { retain_ = retain; }
    bool retainRetired() const { return retain_; }

    void
    clearRetired()
    {
        std::lock_guard<std::mutex> guard(mutex_);
        retired_.clear();
    }

    std::size_t
    numLive() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return live_.size();
    }

    std::size_t
    numRetired() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return retired_.size();
    }

    const std::vector<Group *> &liveGroups() const { return live_; }

  private:
    mutable std::mutex mutex_;
    std::vector<Group *> live_;
    std::vector<std::unique_ptr<Group>> retired_;
    bool retain_ = false;
};

/**
 * Classic text format: "group.stat value" lines, one stat component
 * per line, in group/stat registration order.
 */
class TextStatsWriter : public StatsVisitor
{
  public:
    explicit TextStatsWriter(std::ostream &os) : os_(os) {}

    void visitScalar(const Group &group, const std::string &name,
                     const Scalar &s) override;
    void visitAverage(const Group &group, const std::string &name,
                      const Average &a) override;
    void visitDistribution(const Group &group, const std::string &name,
                           const Distribution &d) override;
    void visitHistogram(const Group &group, const std::string &name,
                        const Histogram &h) override;

  private:
    std::ostream &os_;
};

/**
 * JSON document writer:
 *
 *   {"groups": [{"name": "...", "stats": [
 *       {"name": "...", "type": "scalar", "value": ...}, ...]}]}
 *
 * Call finish() after the last group (destruction finishes implicitly).
 */
class JsonStatsWriter : public StatsVisitor
{
  public:
    explicit JsonStatsWriter(std::ostream &os);
    ~JsonStatsWriter() override;

    void beginGroup(const Group &group) override;
    void endGroup(const Group &group) override;
    void visitScalar(const Group &group, const std::string &name,
                     const Scalar &s) override;
    void visitAverage(const Group &group, const std::string &name,
                      const Average &a) override;
    void visitDistribution(const Group &group, const std::string &name,
                           const Distribution &d) override;
    void visitHistogram(const Group &group, const std::string &name,
                        const Histogram &h) override;

    /** Close the document. Idempotent. */
    void finish();

  private:
    void stat(const std::string &name, const char *type);

    std::ostream &os_;
    bool first_group_ = true;
    bool first_stat_ = true;
    bool finished_ = false;
};

} // namespace stats
} // namespace siopmp

#endif // SIM_STATS_HH
