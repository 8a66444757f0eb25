/**
 * @file
 * Generic plan report: render ExperimentRunner results through a
 * ResultSink with one row per executed point.
 *
 * This is the presentation layer of the data-driven experiment API:
 * any plan — a committed plan file, hand-written JSON, a plan built
 * in code by a bench binary — renders the same way, so
 * `snoc run <plan>` and a bench binary executing the same plan emit
 * byte-identical output for every sink format. Columns cover the
 * scenario identity (via Scenario::describe(), the single labeling
 * path), the offered/delivered/latency metrics, and — when any
 * scenario in the plan arms a fault plan — the drop/refusal
 * counters.
 */

#ifndef SNOC_EXP_REPORT_HH
#define SNOC_EXP_REPORT_HH

#include <vector>

#include "exp/result_sink.hh"
#include "exp/runner.hh"

namespace snoc {

/** Render `results` (as produced by ExperimentRunner::run(plan)). */
void renderPlanReport(const ExperimentPlan &plan,
                      const std::vector<JobResult> &results,
                      ResultSink &sink);

/** Execute `plan` and render it; returns the results for reuse. */
std::vector<JobResult> runPlanReport(const ExperimentPlan &plan,
                                     ResultSink &sink,
                                     const RunnerOptions &opts = {});

} // namespace snoc

#endif // SNOC_EXP_REPORT_HH
