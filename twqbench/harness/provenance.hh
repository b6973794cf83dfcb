/**
 * @file
 * Where a result came from: source revision, compiler, host and the
 * kernel tables the library resolved at run time.
 */

#ifndef TWQBENCH_HARNESS_PROVENANCE_HH
#define TWQBENCH_HARNESS_PROVENANCE_HH

#include <string>

namespace twqbench
{

/**
 * One-line JSON object: commit, compiler, nproc, cpu_model,
 * gemm_kernel, gemm_int8_kernel, layout_kernel, plan_cache_signature
 * and perf_counters (whether perf_event_open works here).
 */
std::string provenanceJson(const std::string &commit);

/** `s` as a JSON string literal. */
std::string jsonString(const std::string &s);

} // namespace twqbench

#endif // TWQBENCH_HARNESS_PROVENANCE_HH
