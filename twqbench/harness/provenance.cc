#include "harness/provenance.hh"

#include <cstdio>
#include <fstream>
#include <thread>

#include "gemm/gemm.hh"
#include "layout/wino_blocked.hh"
#include "obs/perf.hh"
#include "runtime/plan_cache.hh"

#ifndef TWQBENCH_COMPILER
#define TWQBENCH_COMPILER "unknown"
#endif

namespace twqbench
{

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ')
            ++b;
        return line.substr(b);
    }
    return "unknown";
}

} // namespace

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
provenanceJson(const std::string &commit)
{
    std::string j = "{";
    j += "\"commit\": " + jsonString(commit);
    j += ", \"compiler\": " + jsonString(TWQBENCH_COMPILER);
    j += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
    j += ", \"cpu_model\": " + jsonString(cpuModel());
    j += ", \"gemm_kernel\": " + jsonString(twq::gemm::kernelName());
    j += ", \"gemm_int8_kernel\": " +
         jsonString(twq::gemm::int8KernelName());
    j += ", \"layout_kernel\": " + jsonString(twq::layoutKernelName());
    j += ", \"plan_cache_signature\": " +
         jsonString(twq::PlanCache::signature());
    j += ", \"perf_counters\": ";
    j += twq::obs::perfAvailable() ? "true" : "false";
    return j + "}";
}

} // namespace twqbench
