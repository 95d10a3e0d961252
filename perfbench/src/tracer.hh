/**
 * @file
 * Host-time spans around the benchmark's calls into each layer.
 *
 * A disabled Tracer costs one branch per Scope. An enabled one keeps
 * every span in memory (name, op id, parent span, start, end) and
 * writes them out at the end through obs::TraceSink's Chrome writer,
 * so the file loads in Perfetto. A layer's self time is its span's
 * duration minus the durations of its child spans.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two steady-clock points. */
inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

class Tracer
{
  public:
    static constexpr u32 NO_PARENT = ~u32{0};

    struct Span
    {
        const char *name;
        u64 op;
        u32 parent;
        double startNs;
        double endNs;
    };

    explicit Tracer(bool enabled) : on(enabled), t0(Clock::now()) {}

    bool enabled() const { return on; }
    void beginOp(u64 id) { curOp = id; }

    u32 open(const char *name);
    void close(u32 idx);

    const std::vector<Span> &spans() const { return all; }

    /** Per span name: summed self time (ns). */
    std::map<std::string, double> selfNs() const;
    /** Per span name: summed inclusive duration (ns). */
    std::map<std::string, double> totalNs() const;

    /** Chrome trace-event JSON via obs::TraceSink (1 us = 1 us). */
    bool writeChrome(const std::string &path,
                     const std::string &process) const;

  private:
    bool on;
    Clock::time_point t0;
    u64 curOp = 0;
    std::vector<Span> all;
    std::vector<u32> stack;
};

/** RAII span: open on construction, close on destruction. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name)
        : tr(t.enabled() ? &t : nullptr), idx(tr ? tr->open(name) : 0)
    {}
    ~Scope()
    {
        if (tr)
            tr->close(idx);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tr;
    u32 idx;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
