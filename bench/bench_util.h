#pragma once

/**
 * @file
 * Small table/formatting helpers shared by the figure-reproduction
 * benchmark binaries, plus machine-readable JSON-lines emission so
 * sweeps can be consumed by scripts (see README "Benchmarks": one
 * object per line, written to BENCH_<name>.json).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace syscomm::bench {

/** Print a banner naming the experiment. */
inline void
banner(const std::string& id, const std::string& title)
{
    std::string line(72, '=');
    std::printf("%s\n%s — %s\n%s\n", line.c_str(), id.c_str(),
                title.c_str(), line.c_str());
}

/** Print one row of fixed-width columns. */
inline void
row(const std::vector<std::string>& cells, int width = 14)
{
    for (const std::string& cell : cells)
        std::printf("%-*s", width, cell.c_str());
    std::printf("\n");
}

/** Horizontal rule matching row() width. */
inline void
rule(std::size_t columns, int width = 14)
{
    std::printf("%s\n",
                std::string(columns * static_cast<std::size_t>(width), '-')
                    .c_str());
}

inline std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return buf;
}

// ----------------------------------------------------------------------
// Machine-readable results: JSON lines
// ----------------------------------------------------------------------

/**
 * Appends one JSON object per record to a BENCH_*.json file (and
 * mirrors it to stdout). Every record carries the bench id, a metric
 * name, a numeric value, and optional extra key/value dimensions:
 *
 *   {"bench": "fault_sweep", "metric": "injected_cycles",
 *    "value": 73, "intensity": 1, "seed": 0, "status": "completed"}
 */
class JsonWriter
{
  public:
    /** Opens @p path for append; pass "" to mirror to stdout only. */
    JsonWriter(std::string bench, const std::string& path)
        : bench_(std::move(bench)),
          file_(path.empty() ? nullptr : std::fopen(path.c_str(), "a"))
    {}

    ~JsonWriter()
    {
        if (file_ != nullptr)
            std::fclose(file_);
    }

    JsonWriter(const JsonWriter&) = delete;
    JsonWriter& operator=(const JsonWriter&) = delete;

    /** Extra dimensions: values that look numeric are emitted bare. */
    using Extras = std::vector<std::pair<std::string, std::string>>;

    void
    record(const std::string& metric, double value,
           const Extras& extras = {})
    {
        std::string line = "{\"bench\": \"" + escaped(bench_) +
                           "\", \"metric\": \"" + escaped(metric) +
                           "\", \"value\": " + numStr(value);
        for (const auto& [key, raw] : extras) {
            line += ", \"" + escaped(key) + "\": ";
            line += looksNumeric(raw) ? raw : "\"" + escaped(raw) + "\"";
        }
        line += "}\n";
        std::fputs(line.c_str(), stdout);
        if (file_ != nullptr) {
            std::fputs(line.c_str(), file_);
            std::fflush(file_);
        }
    }

  private:
    /**
     * Strict JSON number grammar,
     * -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?: forms strtod
     * accepts but JSON forbids ('+5', '.5', '5.', 'inf', hex,
     * padding) must be emitted as strings instead.
     */
    static bool
    looksNumeric(const std::string& s)
    {
        std::size_t i = 0;
        const std::size_t n = s.size();
        auto digits = [&] {
            std::size_t start = i;
            while (i < n && s[i] >= '0' && s[i] <= '9')
                ++i;
            return i > start;
        };
        if (i < n && s[i] == '-')
            ++i;
        if (i < n && s[i] == '0')
            ++i;
        else if (!digits())
            return false;
        if (i < n && s[i] == '.') {
            ++i;
            if (!digits())
                return false;
        }
        if (i < n && (s[i] == 'e' || s[i] == 'E')) {
            ++i;
            if (i < n && (s[i] == '+' || s[i] == '-'))
                ++i;
            if (!digits())
                return false;
        }
        return i == n;
    }

    static std::string
    escaped(const std::string& s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
        return out;
    }

    /**
     * JSON has no Inf/NaN literals; map them to null. Exactly the
     * non-finite values and nothing else — the old range test
     * (|v| < 1e308) also nulled finite values up to DBL_MAX, and a
     * sloppier check here is how raw nan/inf tokens end up breaking
     * every consumer of a BENCH_*.json file.
     * tests/test_bench_json.cpp parses every emitted line.
     */
    static std::string
    numStr(double v)
    {
        if (!std::isfinite(v))
            return "null";
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

    std::string bench_;
    std::FILE* file_;
};

} // namespace syscomm::bench
