/**
 * @file
 * Sample statistics for the benchmark: medians, percentiles and the
 * tail-percentile rule that decides how deep into a latency tail a
 * sample of a given size can honestly report.
 */

#ifndef TWQBENCH_HARNESS_STATS_HH
#define TWQBENCH_HARNESS_STATS_HH

#include <cstddef>
#include <vector>

namespace twqbench
{

/**
 * Nearest-rank percentile (p in [0, 100]) of a sample; 0 for an
 * empty sample.
 */
double pct(const std::vector<double> &v, double p);

/** Median; the mean of the two middle values for an even count. */
double median(const std::vector<double> &v);

/**
 * The deepest percentile of the ladder 50, 75, 90, 95, 99, 99.9,
 * 99.99 that leaves at least `minBeyond` of `n` samples strictly
 * beyond it, so a reported tail is never a single outlier: 1000
 * samples give p99, 10000 give p99.9. Returns 0 when even the median
 * has fewer than `minBeyond` samples above it.
 */
double tailPercentile(std::size_t n, std::size_t minBeyond = 10);

} // namespace twqbench

#endif // TWQBENCH_HARNESS_STATS_HH
