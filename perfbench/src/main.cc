/**
 * @file
 * perfbench: run one benchmark workload and print the result.
 *
 *   perfbench --workload figures|fuzz|observed|chip4 --seed N
 *             --seconds S --trace 0|1 [--out-dir DIR]
 *   perfbench --list-metrics
 *
 * Context lines (host calibration, digest, failures, trace path) come
 * first; the last line of stdout is the JSON result object.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace {

int
usage()
{
    std::cerr << "usage: perfbench --workload figures|fuzz|observed|chip4 "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
                 "       perfbench --list-metrics\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions o;
    bool haveFlow = false;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        const bool hasVal = i + 1 < argc;
        if (!std::strcmp(a, "--list-metrics")) {
            for (const auto &m : endToEndMetrics())
                std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
            for (const auto &m : perLayerMetrics())
                std::cout << "per_layer " << m.name << " " << m.unit << "\n";
            return 0;
        } else if (!std::strcmp(a, "--workload") && hasVal) {
            haveFlow = parseFlow(argv[++i], o.flow);
            if (!haveFlow)
                return usage();
        } else if (!std::strcmp(a, "--seed") && hasVal) {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(a, "--seconds") && hasVal) {
            o.seconds = std::atof(argv[++i]);
        } else if (!std::strcmp(a, "--trace") && hasVal) {
            o.trace = std::atoi(argv[++i]) != 0;
        } else if (!std::strcmp(a, "--out-dir") && hasVal) {
            o.outDir = argv[++i];
        } else {
            return usage();
        }
    }
    if (!haveFlow || o.seconds <= 0)
        return usage();

    RunReport r;
    try {
        r = runBenchmark(o);
    } catch (const std::exception &e) {
        // No result line: the run could not measure anything.
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    std::cout << "workload " << flowName(o.flow) << " seed " << o.seed
              << (o.trace ? " traced" : " untraced") << "\n";
    for (const auto &n : r.notes)
        std::cout << n << "\n";
    std::cout << "digest " << flowName(o.flow) << ": " << r.digest << "\n";
    std::cout << reportJson(r) << std::endl;
    return 0;
}
