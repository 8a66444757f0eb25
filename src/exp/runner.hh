/**
 * @file
 * ExperimentRunner: executes an ExperimentPlan on a worker pool.
 *
 * Each job builds its own Network (the topology comes read-only from
 * the process-wide TopologyCache) and draws from RNGs seeded only by
 * its Scenario, so a plan's results are a pure function of the plan:
 * running with 1 thread or N threads yields bitwise-identical
 * SimResults, in plan order. This is the execution half of the
 * scenario/execution split — campaign code describes points and the
 * runner saturates the machine.
 *
 * Crash-safe campaign support layers on top of the same contract:
 * a content-addressed result store serves previously simulated
 * points bitwise-identically (RunnerOptions::store), a per-job
 * completion callback feeds the write-ahead journal
 * (RunnerOptions::jobDone / completed), and evaluations can run
 * under a watchdog with bounded retries in forked worker processes
 * so a crash or hang becomes one failed row instead of a lost
 * campaign (jobTimeoutMs / retries / isolate / onFailure).
 */

#ifndef SNOC_EXP_RUNNER_HH
#define SNOC_EXP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "exp/experiment_plan.hh"

namespace snoc {

class ResultStore;

/**
 * What to do when a point evaluation fails (throws, crashes in its
 * isolation child, or trips the watchdog) after retries run out.
 */
enum class FailurePolicy
{
    /**
     * Rethrow on the calling thread — the library default, so
     * programmatic campaigns keep exception semantics.
     */
    Abort,
    /**
     * Record a status=failed row (ScenarioResult::ok = false) and
     * keep going — the CLI default, so one bad job cannot take down
     * an overnight campaign. `snoc run` exits nonzero iff any row
     * failed.
     */
    Record,
};

/** Execution knobs; the plan itself stays pure data. */
struct RunnerOptions
{
    /**
     * Worker threads. 0 resolves SNOC_EXP_THREADS, falling back to
     * std::thread::hardware_concurrency(). 1 runs inline (the serial
     * reference the determinism tests compare against).
     */
    int threads = 0;

    /** Optional progress callback: (jobs done, jobs total). */
    std::function<void(std::size_t, std::size_t)> progress;

    /** Ignored; only the campaign benchmark (perfbench/) still sets it. */
    int batchLanes = -1;

    /**
     * Space-sharded cycle loop (src/sim/shard.hh): step each
     * synthetic-traffic simulation with N threads over a partition
     * of its router graph. Results are bitwise identical to serial;
     * like `threads` this is purely an execution knob. The worker
     * pool is divided by the shard count so a plan claims
     * ~`threads` cores in total. Workload traffic (internally
     * stepped reply loops) always runs serial.
     *
     * -1 resolves SNOC_SIM_SHARDS (unset/"off"/"0"/"1" = serial;
     * 2-64 sets the shard count). 0 or 1 keeps the serial loop;
     * >= 2 sets the shard count directly (clamped to 64, and to the
     * topology's router count at attach time).
     */
    int simShards = -1;

    /** Failure handling after retries are exhausted (see enum). */
    FailurePolicy onFailure = FailurePolicy::Abort;

    /**
     * Optional content-addressed result store (exp/result_store.hh).
     * Points whose key is present are served from disk — bitwise
     * identical to a fresh simulation — and freshly simulated points
     * are written back. Not owned; must outlive run().
     */
    ResultStore *store = nullptr;

    /**
     * Watchdog deadline per scenario evaluation, in milliseconds.
     * -1 resolves SNOC_EXP_JOB_TIMEOUT (seconds; unset = none).
     * 0 disables. A positive timeout forces process isolation — a
     * hung in-process evaluation cannot be killed safely.
     */
    long jobTimeoutMs = -1;

    /**
     * Extra attempts per failed evaluation, with exponential backoff
     * between attempts. -1 resolves SNOC_EXP_RETRIES (unset = 0).
     * Only after the last attempt fails does onFailure apply.
     */
    int retries = -1;

    /**
     * Process isolation: run each scenario evaluation in a forked
     * child, results returned over a pipe, so a crash (segfault,
     * abort, OOM kill) is contained to one failed row. -1 resolves
     * SNOC_EXP_ISOLATE ("fork"/"1" enables); 0 in-process; 1 fork.
     */
    int isolate = -1;

    /**
     * Completion callback: invoked once per executed job, as soon as
     * that job's result is final, with the plan index and the result.
     * Calls are serialized (one at a time) but come from worker
     * threads, in completion order. The CLI journals from here;
     * resumed jobs (below) do not fire it.
     */
    std::function<void(std::size_t, const JobResult &)> jobDone;

    /**
     * Resume support: jobs whose plan index appears here are spliced
     * into the results verbatim and never re-executed. Not owned;
     * must outlive run(). Replayed journal rows are bitwise what a
     * fresh run would produce, so output stays byte-identical.
     */
    const std::map<std::size_t, JobResult> *completed = nullptr;
};

/**
 * Evaluate a point's energy metrics from its measurement-window
 * counters (zeroed/invalid when the scenario's energy spec is
 * disabled). Pure function of its arguments — the runner applies it
 * to every result after execution, so energy values cannot depend on
 * the execution mode (serial / sharded).
 */
EnergyMetrics evaluateEnergy(const Scenario &s, const SimResult &r);

/** Plan executor; stateless between run() calls. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions opts = {});

    /**
     * Execute every job; results are indexed exactly like plan.jobs.
     * Exceptions thrown by a job (e.g. unknown topology id) are
     * rethrown on the calling thread after the pool drains.
     */
    std::vector<JobResult> run(const ExperimentPlan &plan) const;

    /** Execute one scenario on the calling thread. */
    static SimResult runScenario(const Scenario &s);

    /**
     * Execute one scenario, stepping it with `simShards` threads
     * when it is synthetic-traffic (workloads run serial). Bitwise
     * identical to runScenario(s) for any shard count.
     */
    static SimResult runScenario(const Scenario &s, int simShards);

    /** The resolved worker count run() will use. */
    int threadCount() const { return threads_; }

    /** Always 0; only the campaign benchmark (perfbench/) reads it. */
    int batchLaneCount() const { return 0; }

    /** The resolved per-simulation shard count (1 = serial loop). */
    int simShardCount() const { return simShards_; }

    /** True when evaluations run in forked children. */
    bool isolated() const { return isolate_; }

    /** The resolved watchdog deadline in ms (0 = none). */
    long jobTimeoutMs() const { return timeoutMs_; }

    /** The resolved extra attempts per failed evaluation. */
    int retryCount() const { return retries_; }

  private:
    int threads_;
    int simShards_;
    bool isolate_;
    long timeoutMs_;
    int retries_;
    RunnerOptions opts_;

    JobResult runJob(const Job &job) const;
    ScenarioResult evalScenario(const Scenario &s,
                                JobResult &stats) const;
};

} // namespace snoc

#endif // SNOC_EXP_RUNNER_HH
