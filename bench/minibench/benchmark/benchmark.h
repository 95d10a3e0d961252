/**
 * @file
 * Minimal header-only google-benchmark-compatible harness.
 *
 * Why this exists: the simulator-speed numbers recorded in
 * BENCH_simspeed.json are only meaningful from an optimized harness,
 * but the distro's libbenchmark package ships without NDEBUG and
 * stamps `"library_build_type": "debug"` into every JSON context it
 * emits — and the CI image is offline, so the FetchContent fallback to
 * a release-built upstream can never fire there. Bundling the small
 * subset of the API the repository actually uses makes the harness
 * build with the same flags as the measured library, so the recorded
 * context is honestly "release" and run_simspeed.sh can refuse debug
 * harnesses outright.
 *
 * Implemented surface (source-compatible with google-benchmark):
 *
 *   - `void BM_x(benchmark::State &)` functions iterated with
 *     `for (auto _ : state)`, auto-scaled until the measured run is
 *     long enough to trust (--benchmark_min_time, default 0.5s);
 *   - BENCHMARK(BM_x)->Unit(benchmark::kMillisecond);
 *   - benchmark::DoNotOptimize / ClobberMemory;
 *   - plain user counters, `state.counters["name"] = value`, reported
 *     as-is (google-benchmark's default Counter flags);
 *   - BENCHMARK_MAIN();
 *   - flags: --benchmark_filter=REGEX, --benchmark_repetitions=N,
 *     --benchmark_out=FILE, --benchmark_out_format=json,
 *     --benchmark_min_time=SECS[s];
 *   - console table plus google-benchmark-shaped JSON: a `context`
 *     object (date, host_name, executable, num_cpus, load_avg,
 *     library_build_type from this translation unit's NDEBUG) and a
 *     `benchmarks` array with per-repetition entries and, when
 *     repetitions > 1, _mean/_median/_stddev/_cv aggregates.
 *
 * Not implemented (unused here): ranges/args, fixtures, threads,
 * counter flags (rates, averages), manual timing, custom reporters.
 */

#ifndef TRIPSIM_MINIBENCH_BENCHMARK_H
#define TRIPSIM_MINIBENCH_BENCHMARK_H

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

namespace benchmark {

enum TimeUnit { kNanosecond, kMicrosecond, kMillisecond, kSecond };

// ---------------------------------------------------------------------
// Optimization barriers.
// ---------------------------------------------------------------------

template <class T>
inline void
DoNotOptimize(T const &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

template <class T>
inline void
DoNotOptimize(T &value)
{
    asm volatile("" : "+r,m"(value) : : "memory");
}

inline void
ClobberMemory()
{
    asm volatile("" : : : "memory");
}

// ---------------------------------------------------------------------
// State: the per-run iteration controller. The runner decides the
// iteration count; the benchmark body just loops `for (auto _ : state)`.
// ---------------------------------------------------------------------

class State
{
  public:
    explicit State(int64_t iters) : max_iterations(iters) {}

    // Non-trivial destructor so `for (auto _ : state)` does not trip
    // -Wunused-but-set-variable on the loop variable.
    struct Empty
    {
        ~Empty() {}
    };

    struct iterator
    {
        int64_t remaining;
        Empty operator*() const { return Empty{}; }
        iterator &operator++()
        {
            --remaining;
            return *this;
        }
        bool operator!=(const iterator &) const { return remaining != 0; }
    };

    iterator begin() { return iterator{max_iterations}; }
    iterator end() { return iterator{0}; }

    int64_t iterations() const { return max_iterations; }

    const int64_t max_iterations;
    /** User counters of this run, reported beside its times. */
    std::map<std::string, double> counters;
};

// ---------------------------------------------------------------------
// Registration.
// ---------------------------------------------------------------------

namespace internal {

using Function = void (*)(State &);

class Benchmark
{
  public:
    Benchmark(const char *name, Function fn) : name_(name), fn_(fn) {}

    Benchmark *Unit(TimeUnit u)
    {
        unit_ = u;
        return this;
    }

    const std::string &name() const { return name_; }
    Function fn() const { return fn_; }
    TimeUnit unit() const { return unit_; }

  private:
    std::string name_;
    Function fn_;
    TimeUnit unit_ = kNanosecond;
};

inline std::vector<Benchmark *> &
registry()
{
    static std::vector<Benchmark *> r;
    return r;
}

inline Benchmark *
RegisterBenchmarkInternal(Benchmark *b)
{
    registry().push_back(b);
    return b;
}

// Runtime flags (set by Initialize).
struct Flags
{
    std::string filter;
    std::string outFile;
    std::string outFormat = "json";
    unsigned repetitions = 1;
    double minTimeSecs = 0.5;
};

inline Flags &
flags()
{
    static Flags f;
    return f;
}

inline std::string &
executableName()
{
    static std::string n = "bench";
    return n;
}

// ---------------------------------------------------------------------
// Clocks.
// ---------------------------------------------------------------------

inline double
nowRealSecs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

inline double
nowCpuSecs()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

// ---------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------

struct RunResult
{
    std::string name;
    std::string runName;       ///< benchmark name without aggregate tag
    std::string runType;       ///< "iteration" or "aggregate"
    std::string aggregateName; ///< "", "mean", "median", "stddev", "cv"
    unsigned repetitions = 1;
    unsigned repetitionIndex = 0;
    int64_t iterations = 0;
    double realTime = 0; ///< per-iteration, in timeUnit
    double cpuTime = 0;  ///< per-iteration, in timeUnit
    const char *timeUnit = "ns";
    std::map<std::string, double> counters;
};

inline const char *
unitName(TimeUnit u)
{
    switch (u) {
      case kNanosecond: return "ns";
      case kMicrosecond: return "us";
      case kMillisecond: return "ms";
      case kSecond: return "s";
    }
    return "ns";
}

inline double
unitScale(TimeUnit u) // seconds -> unit
{
    switch (u) {
      case kNanosecond: return 1e9;
      case kMicrosecond: return 1e6;
      case kMillisecond: return 1e3;
      case kSecond: return 1.0;
    }
    return 1e9;
}

/** One timed pass of `iters` iterations; returns (real, cpu) seconds
 *  and the run's user counters. */
inline void
timedRun(Benchmark *b, int64_t iters, double &realSecs, double &cpuSecs,
         std::map<std::string, double> *counters = nullptr)
{
    State st(iters);
    double r0 = nowRealSecs(), c0 = nowCpuSecs();
    b->fn()(st);
    realSecs = nowRealSecs() - r0;
    cpuSecs = nowCpuSecs() - c0;
    if (counters)
        *counters = st.counters;
}

/** Pick an iteration count whose run lasts at least minTimeSecs. */
inline int64_t
calibrate(Benchmark *b, double minTimeSecs)
{
    int64_t iters = 1;
    for (;;) {
        double real, cpu;
        timedRun(b, iters, real, cpu);
        if (real >= minTimeSecs || iters >= (int64_t(1) << 40))
            return iters;
        // Same growth policy as google-benchmark: aim 40% past the
        // target, never more than 10x or less than 2x per step.
        double mult = real > 1e-9 ? 1.4 * minTimeSecs / real : 10.0;
        mult = std::min(10.0, std::max(2.0, mult));
        iters = static_cast<int64_t>(static_cast<double>(iters) * mult) + 1;
    }
}

inline RunResult
runOne(Benchmark *b, int64_t iters, unsigned reps, unsigned repIdx)
{
    double real, cpu;
    RunResult r;
    timedRun(b, iters, real, cpu, &r.counters);
    r.name = b->name();
    r.runName = b->name();
    r.runType = "iteration";
    r.repetitions = reps;
    r.repetitionIndex = repIdx;
    r.iterations = iters;
    double scale = unitScale(b->unit()) / static_cast<double>(iters);
    r.realTime = real * scale;
    r.cpuTime = cpu * scale;
    r.timeUnit = unitName(b->unit());
    return r;
}

inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
}

inline double
stddev(const std::vector<double> &v)
{
    if (v.size() < 2)
        return 0;
    double m = mean(v), s = 0;
    for (double x : v)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(v.size() - 1));
}

/** Append google-benchmark's _mean/_median/_stddev/_cv aggregates. */
inline void
appendAggregates(std::vector<RunResult> &out,
                 const std::vector<RunResult> &reps)
{
    if (reps.size() < 2)
        return;
    std::vector<double> real, cpu;
    for (const auto &r : reps) {
        real.push_back(r.realTime);
        cpu.push_back(r.cpuTime);
    }
    auto agg = [&](const char *tag, double rv, double cv,
                   const char *unit, auto stat) {
        RunResult a;
        a.name = reps[0].runName + "_" + tag;
        a.runName = reps[0].runName;
        a.runType = "aggregate";
        a.aggregateName = tag;
        a.repetitions = reps[0].repetitions;
        a.iterations = static_cast<int64_t>(reps.size());
        a.realTime = rv;
        a.cpuTime = cv;
        a.timeUnit = unit;
        for (const auto &kv : reps[0].counters) {
            std::vector<double> v;
            for (const auto &r : reps)
                v.push_back(r.counters.at(kv.first));
            a.counters[kv.first] = stat(v);
        }
        out.push_back(a);
    };
    auto cvOf = [](const std::vector<double> &v) {
        double m = mean(v);
        return m > 0 ? stddev(v) / m : 0;
    };
    const char *u = reps[0].timeUnit;
    agg("mean", mean(real), mean(cpu), u, mean);
    agg("median", median(real), median(cpu), u, median);
    agg("stddev", stddev(real), stddev(cpu), u, stddev);
    agg("cv", cvOf(real), cvOf(cpu), "", cvOf);
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

inline void
writeJson(std::ostream &os, const std::vector<RunResult> &results)
{
    char date[64] = "unknown";
    std::time_t t = std::time(nullptr);
    std::tm tm{};
    if (localtime_r(&t, &tm))
        std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%S%z", &tm);
    char host[256] = "unknown";
    gethostname(host, sizeof host - 1);
    double load[3] = {0, 0, 0};
    getloadavg(load, 3);

    os << "{\n  \"context\": {\n"
       << "    \"date\": \"" << date << "\",\n"
       << "    \"host_name\": \"" << jsonEscape(host) << "\",\n"
       << "    \"executable\": \"" << jsonEscape(executableName())
       << "\",\n"
       << "    \"num_cpus\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "    \"load_avg\": [" << load[0] << "," << load[1] << ","
       << load[2] << "],\n"
       << "    \"harness\": \"tripsim-minibench\",\n"
#ifdef NDEBUG
       << "    \"library_build_type\": \"release\"\n"
#else
       << "    \"library_build_type\": \"debug\"\n"
#endif
       << "  },\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        os << "    {\n"
           << "      \"name\": \"" << jsonEscape(r.name) << "\",\n"
           << "      \"run_name\": \"" << jsonEscape(r.runName)
           << "\",\n"
           << "      \"run_type\": \"" << r.runType << "\",\n";
        if (!r.aggregateName.empty())
            os << "      \"aggregate_name\": \"" << r.aggregateName
               << "\",\n";
        os << "      \"repetitions\": " << r.repetitions << ",\n"
           << "      \"repetition_index\": " << r.repetitionIndex
           << ",\n"
           << "      \"iterations\": " << r.iterations << ",\n"
           << "      \"real_time\": " << r.realTime << ",\n"
           << "      \"cpu_time\": " << r.cpuTime << ",\n";
        for (const auto &kv : r.counters)
            os << "      \"" << jsonEscape(kv.first) << "\": " << kv.second
               << ",\n";
        os << "      \"time_unit\": \"" << r.timeUnit << "\"\n"
           << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

inline void
printConsole(const std::vector<RunResult> &results)
{
    std::printf("%s\n", std::string(66, '-').c_str());
    std::printf("%-32s %13s %13s %10s\n", "Benchmark", "Time", "CPU",
                "Iterations");
    std::printf("%s\n", std::string(66, '-').c_str());
    for (const auto &r : results) {
        std::printf("%-32s %10.3f %s %10.3f %s %10lld", r.name.c_str(),
                    r.realTime, r.timeUnit, r.cpuTime, r.timeUnit,
                    static_cast<long long>(r.iterations));
        for (const auto &kv : r.counters)
            std::printf(" %s=%g", kv.first.c_str(), kv.second);
        std::printf("\n");
    }
}

} // namespace internal

// ---------------------------------------------------------------------
// Entry points (the BENCHMARK_MAIN surface).
// ---------------------------------------------------------------------

inline void
Initialize(int *argc, char **argv)
{
    auto &f = internal::flags();
    if (*argc > 0)
        internal::executableName() = argv[0];
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        std::string a = argv[i];
        auto starts = [&](const char *p) {
            return a.rfind(p, 0) == 0;
        };
        if (starts("--benchmark_filter=")) {
            f.filter = a.substr(std::strlen("--benchmark_filter="));
        } else if (starts("--benchmark_out_format=")) {
            f.outFormat =
                a.substr(std::strlen("--benchmark_out_format="));
        } else if (starts("--benchmark_out=")) {
            f.outFile = a.substr(std::strlen("--benchmark_out="));
        } else if (starts("--benchmark_repetitions=")) {
            f.repetitions = static_cast<unsigned>(std::strtoul(
                a.c_str() + std::strlen("--benchmark_repetitions="),
                nullptr, 10));
            if (f.repetitions == 0)
                f.repetitions = 1;
        } else if (starts("--benchmark_min_time=")) {
            // Accepts "0.5" and google-benchmark 1.8's "0.5s".
            f.minTimeSecs = std::strtod(
                a.c_str() + std::strlen("--benchmark_min_time="),
                nullptr);
            if (f.minTimeSecs <= 0)
                f.minTimeSecs = 0.5;
        } else if (starts("--benchmark_")) {
            std::fprintf(stderr, "minibench: ignoring %s\n", a.c_str());
        } else {
            argv[out++] = argv[i]; // leave for the caller
            continue;
        }
    }
    *argc = out;
}

inline bool
ReportUnrecognizedArguments(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        std::fprintf(stderr, "minibench: unrecognized argument %s\n",
                     argv[i]);
    return argc > 1;
}

inline size_t
RunSpecifiedBenchmarks()
{
    const auto &f = internal::flags();
    std::regex filter(f.filter.empty() ? std::string(".*") : f.filter);
    std::vector<internal::RunResult> results;
    size_t ran = 0;
    for (auto *b : internal::registry()) {
        if (!std::regex_search(b->name(), filter))
            continue;
        ++ran;
        int64_t iters = internal::calibrate(b, f.minTimeSecs);
        std::vector<internal::RunResult> reps;
        for (unsigned r = 0; r < f.repetitions; ++r)
            reps.push_back(
                internal::runOne(b, iters, f.repetitions, r));
        for (const auto &r : reps)
            results.push_back(r);
        internal::appendAggregates(results, reps);
    }
    internal::printConsole(results);
    if (!f.outFile.empty()) {
        if (f.outFormat != "json") {
            std::fprintf(stderr,
                         "minibench: only json output is supported "
                         "(got %s)\n",
                         f.outFormat.c_str());
            std::exit(1);
        }
        std::ofstream os(f.outFile);
        if (!os) {
            std::fprintf(stderr, "minibench: cannot write %s\n",
                         f.outFile.c_str());
            std::exit(1);
        }
        internal::writeJson(os, results);
    }
    return ran;
}

inline void
Shutdown()
{
}

} // namespace benchmark

#define BENCHMARK(fn)                                                    \
    static ::benchmark::internal::Benchmark *benchmark_reg_##fn          \
        [[maybe_unused]] = ::benchmark::internal::RegisterBenchmarkInternal( \
            new ::benchmark::internal::Benchmark(#fn, fn))

#define BENCHMARK_MAIN()                                                 \
    int main(int argc, char **argv)                                      \
    {                                                                    \
        ::benchmark::Initialize(&argc, argv);                            \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))        \
            return 1;                                                    \
        ::benchmark::RunSpecifiedBenchmarks();                           \
        ::benchmark::Shutdown();                                         \
        return 0;                                                        \
    }

#endif // TRIPSIM_MINIBENCH_BENCHMARK_H
