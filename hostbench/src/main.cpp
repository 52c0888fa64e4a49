/**
 * @file
 * ticshostbench: command-line front end of the host-throughput
 * benchmark. hostbench/run.py builds and invokes it; see
 * hostbench/README.md for the workloads and metrics.
 *
 *   ticshostbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --goldens DIR --work-dir DIR
 *   ticshostbench --record-goldens DIR
 *
 * Output: a "provenance" JSON line, a "report" JSON line carrying every
 * quantity the workload defines, and, last, the result object
 * {"correct", "attempted", "failed", "metrics"}. Exit 0 whenever that
 * object was printed; nonzero (without it) on bad arguments or an
 * unoptimized build.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "hostbench.hpp"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HOSTBENCH_COMPILER
#define HOSTBENCH_COMPILER "unknown"
#endif
#ifndef HOSTBENCH_FLAGS
#define HOSTBENCH_FLAGS ""
#endif

namespace hostbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
    if (rank > 0 && static_cast<double>(rank) ==
                        q * static_cast<double>(v.size()))
        --rank;
    return v[std::min(rank, v.size() - 1)];
}

} // namespace hostbench

namespace {

using hostbench::Metrics;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonMetrics(const Metrics &m)
{
    std::string out = "{";
    bool first = true;
    char num[64];
    for (const auto &[name, v] : m) {
        if (v.count)
            std::snprintf(num, sizeof(num), "%.0f", v.value);
        else
            std::snprintf(num, sizeof(num), "%.17g", v.value);
        out += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " +
               num + ", \"unit\": " + jsonString(v.unit) + "}";
        first = false;
    }
    return out + "}";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "ticshostbench: %s\n"
                 "usage: ticshostbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --goldens DIR --work-dir DIR\n"
                 "       ticshostbench --record-goldens DIR\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "ticshostbench: refusing to run an unoptimized "
                         "build (build type '" HOSTBENCH_BUILD_TYPE "')\n");
    return 2;
#endif
    hostbench::Options opt;
    std::string recordDir;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end || v[0] == '-')
                usage("--seed takes a non-negative integer");
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(opt.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--goldens") {
            opt.goldenDir = v;
        } else if (a == "--work-dir") {
            opt.workDir = v;
        } else if (a == "--record-goldens") {
            recordDir = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }

    if (!recordDir.empty()) {
        hostbench::recordGoldens(recordDir);
        return 0;
    }
    if (!haveWorkload || opt.goldenDir.empty() || opt.workDir.empty())
        usage("--workload, --goldens and --work-dir are required");
    bool known = false;
    for (const std::string &n : hostbench::workloadNames())
        known = known || n == opt.workload;
    if (!known)
        usage(("unknown workload " + opt.workload).c_str());

    std::printf("{\"provenance\": {\"build_type\": %s, \"compiler\": %s, "
                "\"flags\": %s, \"optimized\": true, "
                "\"hardware_threads\": %u}}\n",
                jsonString(HOSTBENCH_BUILD_TYPE).c_str(),
                jsonString(HOSTBENCH_COMPILER).c_str(),
                jsonString(HOSTBENCH_FLAGS).c_str(),
                std::thread::hardware_concurrency());
    std::fflush(stdout);

    const hostbench::RunOutput out = hostbench::runWorkload(opt);

    std::printf("{\"report\": {\"workload\": %s, \"seed\": %llu, "
                "\"trace\": %d, \"metrics\": %s}}\n",
                jsonString(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                jsonMetrics(out.report).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                jsonMetrics(opt.trace ? out.perLayer : out.endToEnd).c_str());
    return 0;
}
