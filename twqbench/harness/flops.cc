#include "harness/flops.hh"

#include "layout/kernels.hh"
#include "layout/layout.hh"
#include "winograd/tiled.hh"

namespace twqbench
{

std::map<std::string, StageCost>
blockedStageCosts(const LayerShape &s, twq::WinoVariant v, bool int8,
                  std::size_t kronTermsIn, std::size_t kronTermsOut,
                  std::size_t gemmOperandBytes)
{
    const twq::WinoSpec spec = twq::winoSpec(v);
    const double kB = static_cast<double>(twq::kLayoutBlock);
    const double m = static_cast<double>(spec.m);
    const double tt = static_cast<double>(spec.t * spec.t);
    const double mm = m * m;
    const double cinb = static_cast<double>(twq::layoutBlocks(s.cin));
    const double coutb = static_cast<double>(twq::layoutBlocks(s.cout));
    const double tiles = static_cast<double>(
        s.n * ((s.h + spec.m - 1) / spec.m) * ((s.w + spec.m - 1) / spec.m));
    const double hw = static_cast<double>(s.h * s.w);

    const double inElems = static_cast<double>(s.n) * cinb * hw * kB;
    const double outElems = static_cast<double>(s.n) * coutb * hw * kB;
    const double vRow = cinb * tiles * kB;  // one tap row of V / U
    const double mRow = coutb * tiles * kB; // one tap row of M / Y
    const double f64 = 8.0;
    // Tile buffers before the GEMM: int32 on the integer path.
    const double act = int8 ? 4.0 : f64;
    const double wop = int8 ? static_cast<double>(gemmOperandBytes) : f64;
    const double mout = int8 ? 4.0 : f64;

    std::map<std::string, StageCost> c;
    if (int8)
        c["quantize"] = {inElems, inElems * (f64 + 4.0)};
    c["gather"] = {0.0, (inElems + tt * vRow) * act};
    c["bkron"] = {2.0 * static_cast<double>(kronTermsIn) * vRow,
                  2.0 * tt * vRow * act};
    if (int8)
        c["requant"] = {tt * vRow, tt * vRow * (4.0 + wop)};
    c["tapgemm"] = {2.0 * tt * coutb * kB * cinb * kB * tiles,
                    tt * coutb * kB * cinb * kB * wop + tt * vRow * wop +
                        tt * mRow * mout};
    if (int8)
        c["rescale"] = {tt * mRow, tt * mRow * (4.0 + f64)};
    c["akron"] = {2.0 * static_cast<double>(kronTermsOut) * mRow,
                  (tt + mm) * mRow * f64};
    c["untile"] = {0.0, (mm * mRow + outElems) * f64};
    return c;
}

std::map<std::string, StageCost>
blockedStageCosts(const LayerShape &s, twq::WinoVariant v, bool int8)
{
    const std::size_t opBytes =
        twq::layout::kernels().tapGemmU8 != nullptr ? 1 : 2;
    const std::size_t termsIn =
        int8 ? twq::winoInputKron<std::int32_t>(v).terms.size()
             : twq::winoInputKron<double>(v).terms.size();
    return blockedStageCosts(s, v, int8, termsIn,
                             twq::winoOutputKron<double>(v).terms.size(),
                             opBytes);
}

} // namespace twqbench
