#pragma once

/**
 * @file
 * Shared plumbing of the perfbench harness: clocks and sample
 * statistics, the correctness gate, the metric report, host metadata,
 * and the in-memory span tracer the traced run records at every layer
 * boundary the benchmark calls into.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Nanoseconds on the steady clock (span timestamps). */
std::int64_t nowNs();

/** Current / peak resident set size of this process, MiB. */
double currentRssMb();
double peakRssMb();
/**
 * Heap bytes in use (malloc'd and not freed), MiB. Unlike RSS it moves
 * by exactly what an object allocates, even when the allocator reuses
 * pages an earlier object freed.
 */
double heapInUseMb();

/** SplitMix64: every generated input derives from --seed through it. */
std::uint64_t mix64(std::uint64_t x);

/** Timing samples with the summary statistics the report prints. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    std::size_t count() const { return values_.size(); }
    double sum() const;
    double median() const;
    /** Linear-interpolated quantile, q in [0, 1]. */
    double quantile(double q) const;
    /**
     * The highest percentile (of 50, 90, 95, 99, 99.9) that still has
     * at least ten samples beyond it; 50 when there are fewer than 20.
     */
    double tailPercentile() const;
    const std::vector<double>& values() const { return values_; }

  private:
    std::vector<double> values_;
};

/** Options shared by every workload (parsed from the command line). */
struct Context
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Minimum-size inputs for the self-test. */
    bool smoke = false;
    /** Flip one expected digest, so the gate must trip (self-test). */
    bool corruptExpected = false;
    /** Fresh per-process scratch dir (spool, journals, socket). */
    std::string workDir;
    /** Recorded digests (perfbench/golden_digests.txt). */
    std::string goldenPath;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string tracePath;
    /** Sweep worker threads (min(4, nproc)). */
    int sweepWorkers = 1;
};

/**
 * The correctness gate: every checked outcome is attempted once, and
 * a mismatch is a failure that makes the run exit nonzero.
 */
class Gate
{
  public:
    /** Count one operation; record a failure when !ok. */
    void check(bool ok, const std::string& what);
    std::int64_t attempted() const;
    std::int64_t failed() const;

  private:
    mutable std::mutex mutex_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    int printed_ = 0;
};

/** Recorded expected digests: "workload key 0x..." lines. */
class Golden
{
  public:
    bool load(const std::string& path, std::string& error);
    /** True and @p out set when @p key is recorded for @p workload. */
    bool find(const std::string& workload, const std::string& key,
              std::uint64_t& out) const;

  private:
    std::map<std::string, std::uint64_t> digests_;
};

/** One reported metric (summary of samples, or a single value). */
struct MetricRow
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Sample count behind the value (1 for a single measurement). */
    std::size_t count = 1;
    double median = 0.0;
    double tail = 0.0;
    double tailPct = 50.0;
    /** The samples themselves when there are few (results file only). */
    std::vector<double> samples;
};

/** The metrics one process reports, in insertion order. */
class Report
{
  public:
    /** A single measured value. */
    void value(const std::string& name, const std::string& unit, double v);
    /** The median of @p samples, with its tail and count. */
    void summary(const std::string& name, const std::string& unit,
                 const Samples& samples, double scale = 1.0);
    /** An explicit value backed by @p samples' tail/count. */
    void valueWith(const std::string& name, const std::string& unit,
                   double v, const Samples& samples, double scale = 1.0);
    void note(const std::string& key, const std::string& text);

    const std::vector<MetricRow>& rows() const { return rows_; }
    const MetricRow* find(const std::string& name) const;
    const std::vector<std::pair<std::string, std::string>>& notes() const
    {
        return notes_;
    }

  private:
    std::vector<MetricRow> rows_;
    std::vector<std::pair<std::string, std::string>> notes_;
};

/** Host and build stamp printed with every result. */
std::vector<std::pair<std::string, std::string>>
hostMetadata(const Context& ctx);

/** True when this binary was built optimized (refuse otherwise). */
bool optimizedBuild(std::string& why);

/** JSON string literal (quotes included). */
std::string jsonString(const std::string& s);
/** JSON number with all its digits (null for non-finite). */
std::string jsonNumber(double v);

// ------------------------------------------------------------------
// Tracing
// ------------------------------------------------------------------

/**
 * In-memory span recorder. Spans are recorded around calls into the
 * library's public functions from the benchmark's own code: each
 * carries a name, its layer (text/core/sim/serve, or bench for the
 * harness itself), start/end on the steady clock, its parent span and
 * a request id shared by every span of one request. Nothing is written
 * until the run ends.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int64_t parent = -1;
        std::int64_t request = -1;
        /** Small per-thread index (the trace's tid). */
        int thread = 0;
    };

    static Tracer& instance();

    void enable(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Open a span under the calling thread's innermost open span. */
    std::int64_t open(const char* name, const char* layer,
                      std::int64_t request);
    void close(std::int64_t id);

    /** Self time (span minus child coverage) summed per layer, ms. */
    std::map<std::string, double> selfMsByLayer() const;
    std::size_t spanCount() const;
    /** Write every span as Chrome trace-event JSON; false on error. */
    bool write(const std::string& path) const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; free when tracing is off. */
class ScopedSpan
{
  public:
    ScopedSpan(const char* name, const char* layer,
               std::int64_t request = -1)
        : id_(Tracer::instance().enabled()
                  ? Tracer::instance().open(name, layer, request)
                  : -1)
    {}
    ~ScopedSpan()
    {
        if (id_ >= 0)
            Tracer::instance().close(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    std::int64_t id_;
};

} // namespace perfbench
