#include "common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
currentRssMb()
{
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0.0;
    long total = 0, resident = 0;
    const int fields = std::fscanf(f, "%ld %ld", &total, &resident);
    std::fclose(f);
    if (fields != 2)
        return 0.0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
heapInUseMb()
{
#if defined(__GLIBC__)
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd) /
           (1024.0 * 1024.0);
#else
    return currentRssMb();
#endif
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// ------------------------------------------------------------------
// Samples
// ------------------------------------------------------------------

double
Samples::sum() const
{
    double s = 0.0;
    for (double v : values_)
        s += v;
    return s;
}

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
Samples::median() const
{
    return quantile(0.5);
}

double
Samples::tailPercentile() const
{
    const double n = static_cast<double>(values_.size());
    for (double pct : {99.9, 99.0, 95.0, 90.0}) {
        if (n * (1.0 - pct / 100.0) >= 10.0)
            return pct;
    }
    return 50.0;
}

// ------------------------------------------------------------------
// Gate
// ------------------------------------------------------------------

void
Gate::check(bool ok, const std::string& what)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (printed_ < 20) {
        ++printed_;
        std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
    }
}

std::int64_t
Gate::attempted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
}

std::int64_t
Gate::failed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

// ------------------------------------------------------------------
// Golden digests
// ------------------------------------------------------------------

bool
Golden::load(const std::string& path, std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, key, hex;
        if (!(fields >> workload >> key >> hex)) {
            error = path + ":" + std::to_string(lineNo) + ": malformed";
            return false;
        }
        digests_[workload + " " + key] =
            std::strtoull(hex.c_str(), nullptr, 16);
    }
    return true;
}

bool
Golden::find(const std::string& workload, const std::string& key,
             std::uint64_t& out) const
{
    auto it = digests_.find(workload + " " + key);
    if (it == digests_.end())
        return false;
    out = it->second;
    return true;
}

// ------------------------------------------------------------------
// Report
// ------------------------------------------------------------------

void
Report::value(const std::string& name, const std::string& unit, double v)
{
    MetricRow row;
    row.name = name;
    row.unit = unit;
    row.value = row.median = row.tail = v;
    rows_.push_back(row);
}

void
Report::summary(const std::string& name, const std::string& unit,
                const Samples& samples, double scale)
{
    valueWith(name, unit, samples.median() * scale, samples, scale);
}

void
Report::valueWith(const std::string& name, const std::string& unit,
                  double v, const Samples& samples, double scale)
{
    MetricRow row;
    row.name = name;
    row.unit = unit;
    row.value = v;
    row.count = samples.count();
    row.median = samples.median() * scale;
    row.tailPct = samples.tailPercentile();
    row.tail = samples.quantile(row.tailPct / 100.0) * scale;
    if (samples.count() <= 64) {
        for (double v : samples.values())
            row.samples.push_back(v * scale);
    }
    rows_.push_back(row);
}

void
Report::note(const std::string& key, const std::string& text)
{
    notes_.emplace_back(key, text);
}

const MetricRow*
Report::find(const std::string& name) const
{
    for (const MetricRow& row : rows_) {
        if (row.name == name)
            return &row;
    }
    return nullptr;
}

// ------------------------------------------------------------------
// Host metadata
// ------------------------------------------------------------------

namespace {

std::string
readFirstLine(const std::string& path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Size of cpu0's cache at @p level ("" when unknown). */
std::string
cacheSize(int level, bool lastLevel)
{
    std::string best;
    int bestLevel = 0;
    for (int index = 0; index < 8; ++index) {
        const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                                std::to_string(index) + "/";
        const std::string lv = readFirstLine(dir + "level");
        if (lv.empty())
            break;
        const std::string type = readFirstLine(dir + "type");
        if (type == "Instruction")
            continue;
        const int l = std::atoi(lv.c_str());
        if ((lastLevel && l > bestLevel) || (!lastLevel && l == level)) {
            best = readFirstLine(dir + "size");
            bestLevel = l;
        }
    }
    return best.empty() ? "unknown" : best;
}

} // namespace

std::vector<std::pair<std::string, std::string>>
hostMetadata(const Context& ctx)
{
    const char* sha = std::getenv("PERFBENCH_SOURCE_ID");
    return {
        {"cpu_model", cpuModel()},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"l2_cache", cacheSize(2, false)},
        {"llc_cache", cacheSize(0, true)},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"source_id", sha != nullptr && *sha != '\0' ? sha : "unknown"},
        {"workload", ctx.workload},
        {"seed", std::to_string(ctx.seed)},
        {"seconds", std::to_string(ctx.seconds)},
        {"trace", ctx.trace ? "1" : "0"},
        {"sweep_workers", std::to_string(ctx.sweepWorkers)},
    };
}

bool
optimizedBuild(std::string& why)
{
#ifndef __OPTIMIZE__
    why = "built without optimization (-O0)";
    return false;
#else
    if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
        why = "Debug build";
        return false;
    }
    return true;
#endif
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ------------------------------------------------------------------
// Tracer
// ------------------------------------------------------------------

namespace {
thread_local std::vector<std::int64_t> tOpenSpans;
std::atomic<int> gNextThread{0};
thread_local int tThread = gNextThread.fetch_add(1);
} // namespace

Tracer&
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

std::int64_t
Tracer::open(const char* name, const char* layer, std::int64_t request)
{
    Span span;
    span.name = name;
    span.layer = layer;
    span.parent = tOpenSpans.empty() ? -1 : tOpenSpans.back();
    span.thread = tThread;
    span.startNs = nowNs();
    std::int64_t id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (request < 0 && span.parent >= 0)
            request = spans_[static_cast<std::size_t>(span.parent)].request;
        span.request = request;
        id = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(std::move(span));
    }
    tOpenSpans.push_back(id);
    return id;
}

void
Tracer::close(std::int64_t id)
{
    const std::int64_t end = nowNs();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].endNs = end;
    }
    if (!tOpenSpans.empty() && tOpenSpans.back() == id)
        tOpenSpans.pop_back();
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Children of one span run nested on the parent's thread, so they
    // never overlap each other: self = duration - sum(children).
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        self[s.layer] +=
            static_cast<double>(s.endNs - s.startNs - childNs[i]) / 1e6;
    }
    return self;
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    std::fputs("{\"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                     "\"tid\": %d, \"args\": {\"id\": %zu, "
                     "\"parent\": %" PRId64 ", \"request\": %" PRId64 "}}",
                     i == 0 ? "" : ",\n", jsonString(s.name).c_str(),
                     jsonString(s.layer).c_str(),
                     static_cast<double>(s.startNs - origin) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     s.thread, i,
                     s.parent, s.request);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
