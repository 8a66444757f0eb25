/**
 * @file
 * ExperimentPlan: a pure-data batch of experiment jobs.
 *
 * A job is a single Scenario, a load sweep over a base Scenario, or
 * a bisection saturation search. Jobs carry no execution state, so a
 * plan can be built anywhere (bench binaries, examples, tests) and
 * handed to an ExperimentRunner, which schedules jobs across worker
 * threads. Sweeps and saturation searches stay sequential *within*
 * the job (each point depends on the previous one's outcome) but
 * independent jobs run concurrently.
 */

#ifndef SNOC_EXP_EXPERIMENT_PLAN_HH
#define SNOC_EXP_EXPERIMENT_PLAN_HH

#include <string>
#include <vector>

#include "exp/scenario.hh"
#include "exp/strategies.hh"

namespace snoc {

/** One schedulable unit of a plan. */
struct Job
{
    enum class Kind
    {
        Single,     //!< run `scenario` as-is
        Sweep,      //!< run `scenario` at each of `loads`
        Saturation, //!< bisection search from `scenario`
    };

    Kind kind = Kind::Single;
    Scenario scenario; //!< the point, or the sweep/search base

    // Sweep only.
    std::vector<double> loads;
    bool stopAtSaturation = true;
    double saturationFactor = 6.0;

    // Saturation only.
    SaturationSpec saturation;

    bool operator==(const Job &) const = default;
};

/**
 * Energy metrics derived from a point's measurement-window counters
 * by the analytical PowerModel. A pure function of (scenario,
 * SimResult), evaluated by the runner after execution, so the values
 * are bitwise identical across serial and sharded runs.
 * `valid` is false unless the scenario's energy spec is enabled.
 */
struct EnergyMetrics
{
    bool valid = false;
    double dynamicW = 0.0;       //!< window dynamic power [W]
    double staticW = 0.0;        //!< leakage [W]
    double totalW = 0.0;         //!< static + dynamic [W]
    double flitsPerJoule = 0.0;  //!< delivered throughput per watt
    double edpJs = 0.0;          //!< energy-delay product [J*s]

    bool operator==(const EnergyMetrics &) const = default;
};

/** A Scenario together with its measured result. */
struct ScenarioResult
{
    Scenario scenario;
    SimResult sim;
    EnergyMetrics energy; //!< filled when scenario.energy.enabled

    /**
     * False when this point's evaluation failed (threw, crashed in
     * its isolation child, or hit the watchdog) under the Record
     * failure policy; `sim` is then default-constructed and `error`
     * carries the reason. Report/sinks render such points as
     * status=failed rows instead of aborting the campaign.
     */
    bool ok = true;
    std::string error;

    bool operator==(const ScenarioResult &) const = default;
};

/** Terminal state of a job under RunnerOptions::onFailure. */
enum class JobStatus
{
    Ok,     //!< every point evaluated successfully
    Failed, //!< at least one point is a failed row
};

/** Result of one job, point-ordered as executed. */
struct JobResult
{
    Job::Kind kind = Job::Kind::Single;
    std::vector<ScenarioResult> points; //!< 1 for Single; else many

    // Saturation only.
    double saturationLoad = 0.0;
    double bestThroughput = 0.0;

    // Execution bookkeeping (the reproducibility manifest and the
    // write-ahead journal record these; they never feed back into
    // simulation results).
    JobStatus status = JobStatus::Ok;
    std::string error;    //!< first point failure, empty when Ok
    int retries = 0;      //!< extra evaluation attempts consumed
    int cacheHits = 0;    //!< points served by the result store
    int cacheMisses = 0;  //!< points actually simulated
    double wallMs = 0.0;  //!< wall-clock spent evaluating this job

    bool operator==(const JobResult &) const = default;
};

/** An ordered batch of jobs; results keep plan order. */
struct ExperimentPlan
{
    std::string name;
    std::vector<Job> jobs;

    /** Append a single-scenario job. */
    ExperimentPlan &
    add(Scenario s)
    {
        Job j;
        j.scenario = std::move(s);
        jobs.push_back(std::move(j));
        return *this;
    }

    /** Append a load sweep over `base` (its `load` is overridden). */
    ExperimentPlan &
    addSweep(Scenario base, std::vector<double> loads,
             bool stopAtSaturation = true, double saturationFactor = 6.0)
    {
        Job j;
        j.kind = Job::Kind::Sweep;
        j.scenario = std::move(base);
        j.loads = std::move(loads);
        j.stopAtSaturation = stopAtSaturation;
        j.saturationFactor = saturationFactor;
        jobs.push_back(std::move(j));
        return *this;
    }

    /** Append a saturation search from `base`. */
    ExperimentPlan &
    addSaturation(Scenario base, SaturationSpec spec = {})
    {
        Job j;
        j.kind = Job::Kind::Saturation;
        j.scenario = std::move(base);
        j.saturation = spec;
        jobs.push_back(std::move(j));
        return *this;
    }

    std::size_t size() const { return jobs.size(); }
    bool empty() const { return jobs.empty(); }

    bool operator==(const ExperimentPlan &) const = default;
};

} // namespace snoc

#endif // SNOC_EXP_EXPERIMENT_PLAN_HH
