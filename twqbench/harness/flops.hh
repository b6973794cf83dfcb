/**
 * @file
 * Analytic work and traffic of the blocked Winograd pipeline stages.
 *
 * Hardware counters are unavailable on many hosts, so achieved
 * GFLOP/s and GB/s per stage come from these counts and measured
 * stage times instead. The counts follow the code paths of
 * layout/wino_blocked.cc (FP) and quant/int_wino_blocked.cc (int8)
 * on the NCHWc8 layout:
 *
 *  - flops: 2 per multiply-accumulate; the sparse Kronecker
 *    transforms count 2 per plan term per lane (zero matrix entries
 *    are never computed); element-wise quantize/requant/rescale
 *    count 1 per element; gather and untile move data only (0).
 *    Integer operations count as flops.
 *  - bytes: compulsory traffic — every operand read once and every
 *    result written once at its storage width, ignoring cache reuse
 *    and re-reads of overlapping tiles.
 */

#ifndef TWQBENCH_HARNESS_FLOPS_HH
#define TWQBENCH_HARNESS_FLOPS_HH

#include <cstddef>
#include <map>
#include <string>

#include "winograd/matrices.hh"

namespace twqbench
{

/** A stride-1, pad-1 3x3 layer at a batch size. */
struct LayerShape
{
    std::size_t n = 1;
    std::size_t cin = 0;
    std::size_t cout = 0;
    std::size_t h = 0;
    std::size_t w = 0;
};

struct StageCost
{
    double flops = 0.0;
    double bytes = 0.0;
};

/**
 * Per-stage cost of one forward of a blocked Winograd layer, keyed by
 * stage name (quantize, gather, bkron, requant, tapgemm, rescale,
 * akron, untile; the FP pipeline has no quantize/requant/rescale).
 * `kronTermsIn` / `kronTermsOut` are the term counts of the variant's
 * B^T (x) B^T and A^T (x) A^T plans. `gemmOperandBytes` is the int8
 * tap-GEMM operand width: 1 for the u8 (VNNI) kernel, 2 for int16.
 */
std::map<std::string, StageCost>
blockedStageCosts(const LayerShape &s, twq::WinoVariant v, bool int8,
                  std::size_t kronTermsIn, std::size_t kronTermsOut,
                  std::size_t gemmOperandBytes);

/** blockedStageCosts with the library's own plans and kernel table. */
std::map<std::string, StageCost>
blockedStageCosts(const LayerShape &s, twq::WinoVariant v, bool int8);

} // namespace twqbench

#endif // TWQBENCH_HARNESS_FLOPS_HH
