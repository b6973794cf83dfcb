/**
 * @file
 * Tests of the benchmark harness itself: tail-percentile selection,
 * response keying by wire id under out-of-order arrival, and the
 * analytic stage costs of one hand-checked layer.
 *
 *   twqbench_selftest      exit code 0 when every check passes
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness/flops.hh"
#include "harness/openloop.hh"
#include "harness/stats.hh"
#include "winograd/tiled.hh"

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::fmax(1.0, std::fabs(b));
}

void
testTailPercentile()
{
    using twqbench::tailPercentile;
    check(tailPercentile(1000) == 99.0, "1000 samples report p99");
    check(tailPercentile(999) == 95.0,
          "999 samples leave 9 beyond p99, so report p95");
    check(tailPercentile(10000) == 99.9, "10000 samples report p99.9");
    check(tailPercentile(100000) == 99.99,
          "100000 samples report p99.99");
    check(tailPercentile(100) == 90.0, "100 samples report p90");
    check(tailPercentile(40) == 75.0, "40 samples report p75");
    check(tailPercentile(19) == 0.0, "19 samples have no tail");
    check(tailPercentile(50, 5) == 90.0, "minBeyond is honoured");

    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    check(twqbench::pct(v, 99.0) == 990.0 && twqbench::median(v) == 500.5,
          "nearest-rank p99 and median of 1..1000");
    check(twqbench::median({3.0, 1.0, 2.0}) == 2.0,
          "median of an odd count");
}

void
testIdKeying()
{
    // The first id to ARRIVE is not the first id sent: keying on it
    // (the old bug) makes earlier ids underflow. Keying on the first
    // id sent maps every response back to its request.
    twqbench::IdIndex index(8);
    const std::uint64_t base = 41;
    for (std::size_t i = 0; i < 6; ++i)
        index.bind(i, base + i);
    const std::uint64_t arrival[] = {44, 41, 46, 42, 43, 45};
    bool mapped = true;
    for (std::uint64_t id : arrival) {
        const auto idx = index.lookup(id);
        mapped = mapped && idx && *idx == id - base;
    }
    check(mapped, "out-of-order responses map to their request index");
    check(!index.lookup(40), "an id below the first sent is absent");
    check(!index.lookup(47), "an id not yet bound is absent");
    check(!index.lookup(~std::uint64_t{0}), "a huge id is absent");
    check(!index.waitLookup(49, 10.0),
          "an id past the capacity fails at once");
    index.bind(6, 47);
    check(index.lookup(47) && *index.lookup(47) == 6,
          "a late bind becomes visible");
    check(!twqbench::IdIndex(4).lookup(1), "an empty index is absent");
}

void
testStageCosts()
{
    // F(4,3), one image, 8 -> 8 channels at 8x8: one c-block each
    // way, 2x2 = 4 tiles, 36 taps, 16 outputs per tile. Kron term
    // counts 484 (22 nonzeros of B^T, squared) and 324 (18 of A^T).
    const twqbench::LayerShape s{1, 8, 8, 8, 8};
    auto fp = twqbench::blockedStageCosts(s, twq::WinoVariant::F4, false,
                                          484, 324, 1);
    // tapgemm: 2 * 36 taps * 8 cout * 8 cin * 4 tiles.
    check(near(fp["tapgemm"].flops, 18432.0), "fp tapgemm flops");
    // weights 36*8*8 + U 36*4*8 + M 36*4*8 doubles.
    check(near(fp["tapgemm"].bytes, (2304.0 + 1152.0 + 1152.0) * 8.0),
          "fp tapgemm bytes");
    // bkron: 2 * 484 terms * (1 block * 4 tiles * 8 lanes).
    check(near(fp["bkron"].flops, 2.0 * 484 * 32), "fp bkron flops");
    check(near(fp["bkron"].bytes, 2.0 * 36 * 32 * 8), "fp bkron bytes");
    check(near(fp["akron"].flops, 2.0 * 324 * 32), "fp akron flops");
    check(near(fp["akron"].bytes, (36.0 + 16.0) * 32 * 8),
          "fp akron bytes");
    // gather reads the 8x8x8 input once and writes 36*32 tile values.
    check(near(fp["gather"].bytes, (512.0 + 1152.0) * 8.0),
          "fp gather bytes");
    check(near(fp["untile"].bytes, (512.0 + 512.0) * 8.0),
          "fp untile bytes");
    check(fp.count("quantize") == 0 && fp.count("requant") == 0,
          "the fp pipeline has no quantize/requant stage");

    auto q = twqbench::blockedStageCosts(s, twq::WinoVariant::F4, true,
                                         484, 324, 1);
    check(near(q["quantize"].bytes, 512.0 * 12.0), "int8 quantize bytes");
    check(near(q["requant"].bytes, 1152.0 * 5.0), "int8 requant bytes");
    // u8 weights and tiles, int32 accumulators.
    check(near(q["tapgemm"].bytes, 2304.0 + 1152.0 + 1152.0 * 4.0),
          "int8 tapgemm bytes");
    check(near(q["rescale"].flops, 1152.0), "int8 rescale flops");

    // The library's own F4 plans have the term counts assumed above.
    check(twq::winoInputKron<double>(twq::WinoVariant::F4).terms.size() ==
              484,
          "library B^T (x) B^T plan has 484 terms");
    check(twq::winoOutputKron<double>(twq::WinoVariant::F4).terms.size() ==
              324,
          "library A^T (x) A^T plan has 324 terms");
}

} // namespace

int
main()
{
    testTailPercentile();
    testIdKeying();
    testStageCosts();
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
