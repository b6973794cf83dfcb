/**
 * @file
 * Benchmark entry point.
 *
 *   twqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--commit <rev>]
 *
 * Comment lines (starting with '#') describe the run: provenance,
 * per-phase tallies, tails, per-layer rows. The last line of
 * standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics":
 *    {"<name>": {"value": ..., "unit": "..."}, ...}}
 *
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). A failed correctness check makes the exit code 1.
 */

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "bench.hh"
#include "harness/provenance.hh"

namespace
{

/** Hard stop: a hung server must not hang the benchmark. */
constexpr unsigned kWatchdogSeconds = 170;

extern "C" void
onWatchdog(int)
{
    static const char msg[] = "twqbench: watchdog: run exceeded its "
                              "time limit\n";
    (void)!::write(2, msg, sizeof(msg) - 1);
    ::_exit(3);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "twqbench: %s\nusage: twqbench --workload <%s> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--commit <rev>]\n",
                 msg, twqbench::workloadNames().c_str());
    std::exit(2);
}

twqbench::Args
parse(int argc, char **argv)
{
    twqbench::Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--commit")
                a.commit = v;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + flag + ": " + v).c_str());
        }
    }
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const twqbench::Args a = parse(argc, argv);
    const twqbench::Workload *w = twqbench::findWorkload(a.workload);
    if (!w)
        usage(("unknown workload '" + a.workload + "'").c_str());

    std::signal(SIGALRM, onWatchdog);
    ::alarm(kWatchdogSeconds);

    std::printf("# provenance %s\n",
                twqbench::provenanceJson(a.commit).c_str());
    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                w->name, static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);
    std::fflush(stdout);

    const twqbench::Result r =
        a.trace ? twqbench::runTraced(*w, a) : twqbench::runEndToEnd(*w, a);

    bool finite = true;
    for (const twqbench::Metric &m : r.metrics) {
        std::printf("# metric %-26s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        finite = finite && std::isfinite(m.value);
    }
    const bool correct = r.failed == 0 && finite && r.attempted > 0;
    std::printf("# fail_frac %.6f (%zu of %zu)\n",
                r.attempted ? static_cast<double>(r.failed) / r.attempted
                            : 1.0,
                r.failed, r.attempted);

    std::string j = "{\"correct\": ";
    j += correct ? "true" : "false";
    j += ", \"attempted\": " + std::to_string(r.attempted);
    j += ", \"failed\": " + std::to_string(r.failed);
    j += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const twqbench::Metric &m = r.metrics[i];
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        j += (i ? ", " : "") + twqbench::jsonString(m.name) +
             ": {\"value\": " + num +
             ", \"unit\": " + twqbench::jsonString(m.unit) + "}";
    }
    j += "}}";
    std::printf("%s\n", j.c_str());
    return correct ? 0 : 1;
}
