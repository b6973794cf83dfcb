#include "harness/stats.hh"

#include <algorithm>

#include "common/stats.hh"

namespace twqbench
{

double
pct(const std::vector<double> &v, double p)
{
    return twq::percentile(v, p / 100.0);
}

double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    std::vector<double> s = v;
    const std::size_t mid = s.size() / 2;
    std::nth_element(s.begin(), s.begin() + mid, s.end());
    if (s.size() % 2 == 1)
        return s[mid];
    return 0.5 * (s[mid] + *std::max_element(s.begin(), s.begin() + mid));
}

double
tailPercentile(std::size_t n, std::size_t minBeyond)
{
    // Ladder in basis points, deepest first; integer arithmetic so
    // 1000 samples at p99 count exactly 10 beyond.
    static constexpr std::size_t kLadderBp[] = {9999, 9990, 9900, 9500,
                                                9000, 7500, 5000};
    for (std::size_t bp : kLadderBp)
        if (n * (10000 - bp) >= minBeyond * 10000)
            return static_cast<double>(bp) / 100.0;
    return 0.0;
}

} // namespace twqbench
