/**
 * @file
 * perfbench_driver: the benchmark's in-process half.
 *
 * It links the library the repository build produces and calls only
 * its public API, so nothing under src/ knows it exists. Commands:
 *
 *   info
 *       Build facts for the run record: compiler, optimisation,
 *       sanitizers.
 *   prepare PLAN OUT DIVISOR SEED
 *       Write the benchmark's copy of a committed plan: simulation
 *       windows (and fault cycles) divided by DIVISOR, every load
 *       grid kept whole. SEED 0 keeps every scenario's committed
 *       `seed`; any other SEED rewrites each job's `seed` from it.
 *   setup PLAN REPS
 *       Cold set-up, REPS times: loadPlanFile, TopologyCache::get on
 *       an emptied cache for every topology, and one Network
 *       construction per evaluation point.
 *   check PLAN REPORT_OUT
 *       The correctness reference for a timed run: ExperimentRunner
 *       with one thread and lane batching off, rendered through
 *       renderPlanReport in the CLI's default table format. Beside it
 *       (on a second thread) every point is replayed outside-in to
 *       count the router-cycles the plan simulates, and each replayed
 *       point is compared bitwise with the runner's row.
 *   trace PLAN THREADS TMPDIR TRACE_OUT
 *       The traced run: replays every point through the calls
 *       ExperimentRunner::runScenario makes, with the TrafficSource
 *       wrapped so source time separates from the cycle loop, then
 *       times the campaign layers (result key, store, journal, report,
 *       ExperimentRunner::run with the CLI defaults). Spans go to
 *       TRACE_OUT as Chrome trace-event JSON; per-layer metrics go to
 *       stdout as one JSON object.
 *
 * Every command prints one JSON object on stdout and exits 0; a
 * FatalError or std::exception exits 1 with the message on stderr.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "exp/journal.hh"
#include "exp/plan_io.hh"
#include "exp/report.hh"
#include "exp/result_sink.hh"
#include "exp/result_store.hh"
#include "exp/runner.hh"
#include "exp/serialize.hh"
#include "sim/router_config.hh"
#include "topo/topology_cache.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"
#include "traffic/patterns.hh"
#include "traffic/synthetic.hh"

using namespace snoc;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- spans ------------------------------------------------------------------

/** One timed interval at a layer boundary. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;    //!< index of the enclosing span, -1 for roots
    long point = -1;    //!< evaluation point id, -1 outside points
    double hiddenS = 0; //!< child time not kept as spans (source calls)
    std::uint64_t hiddenCalls = 0;

    double seconds() const { return secondsBetween(start, end); }
};

/**
 * In-memory span recorder for one thread. Spans nest: each opened
 * span's parent is the innermost open one. Nothing is written until
 * writeChrome() at the end of the run.
 */
class Tracer
{
  public:
    int
    open(std::string name, long point = -1)
    {
        Span s;
        s.name = std::move(name);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.point = point;
        spans_.push_back(std::move(s));
        int id = static_cast<int>(spans_.size()) - 1;
        stack_.push_back(id);
        spans_[id].start = Clock::now();
        return id;
    }

    void
    close(int id)
    {
        spans_[id].end = Clock::now();
        stack_.pop_back();
    }

    Span &at(int id) { return spans_[id]; }

    /** Sum of durations of every span called `name`. */
    double
    total(const std::string &name) const
    {
        double s = 0;
        for (const Span &sp : spans_)
            if (sp.name == name)
                s += sp.seconds();
        return s;
    }

    std::uint64_t
    count(const std::string &name) const
    {
        std::uint64_t n = 0;
        for (const Span &sp : spans_)
            n += sp.name == name ? 1 : 0;
        return n;
    }

    /** Duration minus the children's durations and hidden time. */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].seconds() - spans_[i].hiddenS;
        for (const Span &sp : spans_)
            if (sp.parent >= 0)
                self[sp.parent] -= sp.seconds();
        return self;
    }

    /** Chrome trace-event JSON (Perfetto / chrome://tracing). */
    void
    writeChrome(const std::string &path) const
    {
        std::vector<double> self = selfTimes();
        Clock::time_point origin =
            spans_.empty() ? Clock::now() : spans_.front().start;
        auto us = [origin](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin)
                .count();
        };
        JsonValue events = JsonValue::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &sp = spans_[i];
            JsonValue args = JsonValue::object();
            args.set("id", JsonValue::number(static_cast<int>(i)));
            args.set("parent", JsonValue::number(sp.parent));
            args.set("point",
                     JsonValue::number(static_cast<std::int64_t>(
                         sp.point)));
            args.set("self_us", JsonValue::number(self[i] * 1e6));
            if (sp.hiddenCalls > 0) {
                args.set("source_us",
                         JsonValue::number(sp.hiddenS * 1e6));
                args.set("source_calls",
                         JsonValue::number(sp.hiddenCalls));
            }
            JsonValue e = JsonValue::object();
            e.set("name", JsonValue::string(sp.name));
            e.set("cat", JsonValue::string(
                             sp.name.substr(0, sp.name.find('.'))));
            e.set("ph", JsonValue::string("X"));
            e.set("ts", JsonValue::number(us(sp.start)));
            e.set("dur", JsonValue::number(us(sp.end) - us(sp.start)));
            e.set("pid", JsonValue::number(1));
            e.set("tid", JsonValue::number(1));
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
        JsonValue doc = JsonValue::object();
        doc.set("traceEvents", std::move(events));
        doc.set("displayTimeUnit", JsonValue::string("ms"));
        std::ofstream out(path);
        if (!out)
            fatal("cannot write trace file '", path, "'");
        out << doc.dump(-1) << "\n";
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Closes its span on scope exit. */
class Scope
{
  public:
    Scope(Tracer &t, std::string name, long point = -1)
        : tracer_(t), id_(t.open(std::move(name), point))
    {
    }
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

// --- plan points ------------------------------------------------------------

/**
 * Every evaluation point of a plan, per job, in the order
 * ExperimentRunner evaluates them. Only jobs whose points are known
 * up front are replayable; adaptive jobs are refused.
 */
std::vector<std::vector<Scenario>>
planPoints(const ExperimentPlan &plan)
{
    std::vector<std::vector<Scenario>> out;
    for (const Job &job : plan.jobs) {
        std::vector<Scenario> pts;
        if (job.kind == Job::Kind::Single) {
            pts.push_back(job.scenario);
        } else if (job.kind == Job::Kind::Sweep && !job.stopAtSaturation) {
            for (double load : job.loads) {
                Scenario s = job.scenario;
                applySweepValue(s, load);
                pts.push_back(std::move(s));
            }
        } else {
            fatal("perfbench replays only single points and "
                  "non-stopping sweeps");
        }
        out.push_back(std::move(pts));
    }
    return out;
}

/** Exact equality of two results, down to every double's bits. */
bool
sameSim(const SimResult &a, const SimResult &b)
{
    return toJson(a).dump(-1) == toJson(b).dump(-1);
}

// --- outside-in replay ------------------------------------------------------

/** Work done by replayed points (whole-run counters, every cycle). */
struct Work
{
    std::uint64_t routerCycles = 0;
    std::uint64_t sourceCalls = 0;
    double sourceS = 0;
    double activeRouters = 0; //!< Σ lastActiveRouters() per source call
    double routerSamples = 0; //!< Σ routers per source call
    std::uint64_t flitHops = 0;
    std::uint64_t flitsDelivered = 0;
    std::uint64_t crossbarTraversals = 0;
    std::uint64_t faultEvents = 0;
    std::uint64_t packetsDropped = 0;
    std::uint64_t runScenarioMismatches = 0;
};

/**
 * Evaluate one point the way ExperimentRunner::runScenario does, from
 * outside the library: the same topology, Network, source and
 * runSimulation calls, with the source wrapped to time it and to
 * sample the visit set. Trace workloads are split into the
 * generateTrace / makeTraceSource / runSimulation calls runWorkload
 * makes, so generation and replay time separate.
 */
SimResult
replayPoint(const Scenario &s, long point, Tracer &tr, Work &w)
{
    const NocTopology &topo = TopologyCache::instance().get(s.topology);
    RouterConfig rc = RouterConfig::named(s.routerConfig);

    std::optional<Network> net;
    {
        Scope init(tr, "sim.init", point);
        net.emplace(topo, rc, s.link, s.routing, s.routingSeed, s.faults);
    }

    TrafficSource inner;
    SimConfig cfg = s.sim;
    const char *runName = "sim.run";
    if (s.traffic.kind == TrafficSpec::Kind::Workload) {
        Scope gen(tr, "trace.generate", point);
        // runWorkload's own windows: warmup a tenth of the trace,
        // measure the trace, drain every reply.
        Cycle cycles = s.traffic.workloadCycles;
        inner = makeTraceSource(
            generateTrace(workloadByName(s.traffic.workload),
                          net->topology(), cycles, s.seed));
        cfg = SimConfig{};
        cfg.warmupCycles = cycles / 10;
        cfg.measureCycles = cycles;
        cfg.drain = true;
        runName = "trace.run";
    } else if (s.traffic.kind == TrafficSpec::Kind::Synthetic) {
        Scope make(tr, "traffic.make_source", point);
        SyntheticConfig sc;
        sc.load = s.load;
        sc.packetSizeFlits = s.traffic.packetSizeFlits;
        sc.seed = s.seed;
        inner = makeSyntheticSource(
            std::shared_ptr<TrafficPattern>(
                makeTrafficPattern(s.traffic.pattern, topo)),
            sc);
    } else {
        fatal("perfbench replays synthetic and trace traffic only");
    }

    double routers = topo.numRouters();
    double sourceS = 0;
    std::uint64_t calls = 0;
    double active = 0;
    TrafficSource wrapped = [&](Network &n, Cycle c) {
        active += static_cast<double>(n.lastActiveRouters());
        ++calls;
        Clock::time_point t0 = Clock::now();
        bool alive = inner(n, c);
        sourceS += secondsBetween(t0, Clock::now());
        return alive;
    };

    SimResult r;
    {
        Scope run(tr, runName, point);
        r = runSimulation(*net, wrapped, cfg);
        tr.at(run.id()).hiddenS = sourceS;
        tr.at(run.id()).hiddenCalls = calls;
    }

    const SimCounters &c = net->counters();
    w.routerCycles += net->now() * static_cast<std::uint64_t>(routers);
    w.sourceCalls += calls;
    w.sourceS += sourceS;
    w.activeRouters += active;
    w.routerSamples += routers * static_cast<double>(calls);
    w.flitHops += c.linkFlitHops;
    w.flitsDelivered += c.flitsDelivered;
    w.crossbarTraversals += c.crossbarTraversals;
    w.faultEvents += c.faultEvents;
    w.packetsDropped += c.packetsDropped;
    return r;
}

/**
 * Replay every point; results shaped like ExperimentRunner::run's.
 * With `untraced`, each point also runs through
 * ExperimentRunner::runScenario in an "exp.run_scenario" span, before
 * or after the traced replay on alternate points so that neither side
 * always runs on a warmer machine; rows that differ count in
 * w.runScenarioMismatches.
 */
std::vector<JobResult>
replayPlan(const ExperimentPlan &plan,
           const std::vector<std::vector<Scenario>> &points, Tracer &tr,
           Work &w, bool untraced)
{
    std::vector<JobResult> jobs(plan.jobs.size());
    long id = 0;
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
        jobs[j].kind = plan.jobs[j].kind;
        for (const Scenario &s : points[j]) {
            auto runUntraced = [&] {
                Scope rs(tr, "exp.run_scenario", id);
                return ExperimentRunner::runScenario(s);
            };
            bool untracedFirst = untraced && id % 2 == 1;
            SimResult reference;
            if (untracedFirst)
                reference = runUntraced();
            ScenarioResult row;
            row.scenario = s;
            {
                Scope pt(tr, "exp.point", id);
                row.sim = replayPoint(s, id, tr, w);
            }
            if (untraced && !untracedFirst)
                reference = runUntraced();
            if (untraced && !sameSim(reference, row.sim))
                ++w.runScenarioMismatches;
            jobs[j].points.push_back(std::move(row));
            ++id;
        }
    }
    return jobs;
}

/** evaluateEnergy on every replayed row, one span per point. */
void
evaluateEnergyAll(std::vector<JobResult> &jobs, Tracer &tr)
{
    long id = 0;
    for (JobResult &job : jobs)
        for (ScenarioResult &row : job.points) {
            Scope e(tr, "power.evaluate", id++);
            row.energy = evaluateEnergy(row.scenario, row.sim);
        }
}

std::string
renderTable(const ExperimentPlan &plan, const std::vector<JobResult> &jobs)
{
    std::ostringstream os;
    {
        // The sink completes its output on destruction.
        std::unique_ptr<ResultSink> sink = makeResultSink("table", os);
        renderPlanReport(plan, jobs, *sink);
    }
    return os.str();
}

/** Rows of `a` and `b` that differ in scenario, sim or energy. */
std::uint64_t
mismatchedRows(const std::vector<JobResult> &a,
               const std::vector<JobResult> &b)
{
    std::uint64_t bad = 0;
    for (std::size_t j = 0; j < a.size(); ++j) {
        const auto &pa = a[j].points;
        const auto &pb =
            j < b.size() ? b[j].points : std::vector<ScenarioResult>{};
        for (std::size_t k = 0; k < pa.size(); ++k) {
            bool same = k < pb.size() && pb[k].ok &&
                        pa[k].scenario == pb[k].scenario &&
                        sameSim(pa[k].sim, pb[k].sim) &&
                        pa[k].energy == pb[k].energy;
            bad += same ? 0 : 1;
        }
    }
    return bad;
}

std::uint64_t
pointCount(const std::vector<std::vector<Scenario>> &points)
{
    std::uint64_t n = 0;
    for (const auto &p : points)
        n += p.size();
    return n;
}

RunnerOptions
serialUnbatched()
{
    RunnerOptions o;
    o.threads = 1;
    o.batchLanes = 0;
    o.simShards = 1;
    o.isolate = 0;
    o.jobTimeoutMs = 0;
    o.retries = 0;
    o.onFailure = FailurePolicy::Record;
    return o;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out || !(out << text))
        fatal("cannot write '", path, "'");
}

JsonValue
num(double v)
{
    return JsonValue::number(v);
}

JsonValue
num(std::uint64_t v)
{
    return JsonValue::number(v);
}

// --- commands ---------------------------------------------------------------

int
cmdInfo()
{
    JsonValue o = JsonValue::object();
    o.set("compiler", JsonValue::string(__VERSION__));
#ifdef __OPTIMIZE__
    o.set("optimized", JsonValue::boolean(true));
#else
    o.set("optimized", JsonValue::boolean(false));
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    bool sanitized = true;
#else
    bool sanitized = false;
#endif
    o.set("sanitized", JsonValue::boolean(sanitized));
    std::cout << o.dump(-1) << "\n";
    return 0;
}

/** Splitmix64 finaliser: a job's seed from the benchmark seed. */
std::uint64_t
derivedSeed(std::uint64_t benchSeed, std::uint64_t job)
{
    std::uint64_t z = benchSeed * 0x9E3779B97F4A7C15ull + job + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z >> 33; // 31 bits: exact in every JSON reader
}

int
cmdPrepare(const std::string &planPath, const std::string &out,
           std::uint64_t divisor, std::uint64_t seed)
{
    if (divisor == 0)
        fatal("window divisor must be positive");
    ExperimentPlan plan = loadPlanFile(planPath);
    // Shrink, never raise: explicit zeros keep their meaning.
    auto shrink = [divisor](Cycle &c) {
        c = c >= divisor ? c / divisor : (c > 0 ? 1 : 0);
    };
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
        Scenario &s = plan.jobs[j].scenario;
        shrink(s.sim.warmupCycles);
        shrink(s.sim.measureCycles);
        if (s.traffic.kind == TrafficSpec::Kind::Workload)
            shrink(s.traffic.workloadCycles);
        if (s.faults.active())
            shrink(s.faults.randomFailAt);
        for (FaultEvent &e : s.faults.events)
            shrink(e.at);
        if (seed != 0)
            s.seed = derivedSeed(seed, j);
    }
    writeFile(out, serializePlan(plan));
    JsonValue o = JsonValue::object();
    o.set("jobs", num(static_cast<std::uint64_t>(plan.jobs.size())));
    o.set("points", num(pointCount(planPoints(plan))));
    std::cout << o.dump(-1) << "\n";
    return 0;
}

int
cmdSetup(const std::string &planPath, int reps)
{
    JsonValue times = JsonValue::array();
    for (int r = 0; r < reps; ++r) {
        TopologyCache::instance().clear();
        Clock::time_point t0 = Clock::now();
        ExperimentPlan plan = loadPlanFile(planPath);
        for (const auto &job : planPoints(plan))
            for (const Scenario &s : job) {
                const NocTopology &topo =
                    TopologyCache::instance().get(s.topology);
                Network net(topo, RouterConfig::named(s.routerConfig),
                            s.link, s.routing, s.routingSeed, s.faults);
            }
        times.push(num(secondsBetween(t0, Clock::now())));
    }
    JsonValue o = JsonValue::object();
    o.set("setup_s", std::move(times));
    std::cout << o.dump(-1) << "\n";
    return 0;
}

int
cmdCheck(const std::string &planPath, const std::string &reportOut)
{
    ExperimentPlan plan = loadPlanFile(planPath);
    std::vector<std::vector<Scenario>> points = planPoints(plan);

    // The two passes share nothing but the thread-safe topology
    // cache, so they run side by side when there is a second CPU.
    std::vector<JobResult> reference;
    std::exception_ptr refError;
    auto runReference = [&] {
        try {
            reference = ExperimentRunner(serialUnbatched()).run(plan);
        } catch (...) {
            refError = std::current_exception();
        }
    };
    std::thread refThread;
    if (std::thread::hardware_concurrency() >= 2)
        refThread = std::thread(runReference);
    else
        runReference();
    Tracer tr;
    Work w;
    std::vector<JobResult> replay;
    std::exception_ptr replayError;
    try {
        replay = replayPlan(plan, points, tr, w, false);
        evaluateEnergyAll(replay, tr);
    } catch (...) {
        replayError = std::current_exception();
    }
    if (refThread.joinable())
        refThread.join();
    if (refError)
        std::rethrow_exception(refError);
    if (replayError)
        std::rethrow_exception(replayError);

    writeFile(reportOut, renderTable(plan, reference));
    std::uint64_t failedRows = 0;
    for (const JobResult &job : reference)
        for (const ScenarioResult &row : job.points)
            failedRows += row.ok ? 0 : 1;

    JsonValue o = JsonValue::object();
    o.set("points", num(pointCount(points)));
    o.set("router_cycles", num(w.routerCycles));
    o.set("failed_rows", num(failedRows));
    o.set("mismatched_points", num(mismatchedRows(replay, reference)));
    std::cout << o.dump(-1) << "\n";
    return 0;
}

int
cmdTrace(const std::string &planPath, int threads,
         const std::string &tmpDir, const std::string &traceOut)
{
    Tracer tr;
    Work w;
    int root = tr.open("bench.trace");

    ExperimentPlan plan;
    {
        Scope parse(tr, "exp.plan_parse");
        plan = loadPlanFile(planPath);
    }
    std::vector<std::vector<Scenario>> points = planPoints(plan);
    std::uint64_t nPoints = pointCount(points);

    // Cold topology builds, once per id in first-use order.
    TopologyCache::instance().clear();
    std::vector<std::string> ids;
    for (const auto &job : points)
        for (const Scenario &s : job)
            if (std::find(ids.begin(), ids.end(), s.topology) == ids.end())
                ids.push_back(s.topology);
    for (const std::string &id : ids) {
        Scope build(tr, "topo.build");
        TopologyCache::instance().get(id);
    }

    std::vector<JobResult> replay = replayPlan(plan, points, tr, w, true);
    evaluateEnergyAll(replay, tr);
    std::uint64_t mismatched = w.runScenarioMismatches;

    // Campaign layers over the replayed rows.
    std::vector<std::string> keys;
    {
        long id = 0;
        for (const JobResult &job : replay)
            for (const ScenarioResult &row : job.points) {
                Scope k(tr, "exp.result_key", id++);
                keys.push_back(resultKey(row.scenario));
            }
    }
    std::uint64_t storeHits = 0;
    {
        ResultStore store(tmpDir + "/store");
        long id = 0;
        for (const JobResult &job : replay)
            for (const ScenarioResult &row : job.points) {
                Scope p(tr, "exp.store_put", id);
                store.put(keys[id], row.scenario, row.sim);
                ++id;
            }
        // Warm pass: every key must hit, bitwise.
        id = 0;
        for (const JobResult &job : replay)
            for (const ScenarioResult &row : job.points) {
                std::optional<SimResult> hit;
                {
                    Scope l(tr, "exp.store_lookup", id);
                    hit = store.lookup(keys[id]);
                }
                if (hit && sameSim(*hit, row.sim))
                    ++storeHits;
                else
                    ++mismatched;
                ++id;
            }
    }
    {
        ResultJournal journal(tmpDir + "/journal.jsonl", planHash(plan));
        for (std::size_t j = 0; j < replay.size(); ++j) {
            Scope a(tr, "exp.journal_append", static_cast<long>(j));
            journal.append(j, replay[j]);
        }
    }
    std::string replayReport;
    {
        Scope rep(tr, "exp.report");
        replayReport = renderTable(plan, replay);
    }

    // The campaign as the CLI runs it: its default options.
    RunnerOptions cli;
    cli.threads = threads;
    cli.onFailure = FailurePolicy::Record;
    ExperimentRunner runner(cli);
    std::vector<JobResult> campaign;
    {
        Scope run(tr, "exp.runner");
        campaign = runner.run(plan);
    }
    double runnerS = tr.total("exp.runner");
    tr.close(root);
    mismatched += mismatchedRows(replay, campaign);
    bool reportsMatch = renderTable(plan, campaign) == replayReport;

    JsonValue jobWalls = JsonValue::array();
    for (const JobResult &job : campaign)
        jobWalls.push(num(job.wallMs / 1e3));
    int workers = std::min<int>(runner.threadCount(),
                                static_cast<int>(plan.jobs.size()));

    double runS = tr.total("sim.run") + tr.total("trace.run");
    double stepS = runS - w.sourceS;
    double tracedPoints = tr.total("exp.point");
    double untracedPoints = tr.total("exp.run_scenario");

    JsonValue m = JsonValue::object();
    m.set("sim.step_s", num(stepS));
    m.set("sim.ns_per_router_cycle",
          num(w.routerCycles ? stepS * 1e9 / w.routerCycles : 0.0));
    m.set("sim.router_cycles", num(w.routerCycles));
    m.set("sim.active_router_frac",
          num(w.routerSamples > 0 ? w.activeRouters / w.routerSamples
                                  : 0.0));
    m.set("traffic.source_s", num(w.sourceS));
    m.set("traffic.calls", num(w.sourceCalls));
    m.set("traffic.share", num(runS > 0 ? w.sourceS / runS : 0.0));
    m.set("topo.build_s", num(tr.total("topo.build")));
    m.set("topo.builds", num(tr.count("topo.build")));
    m.set("sim.init_s", num(tr.total("sim.init")));
    m.set("sim.inits", num(tr.count("sim.init")));
    m.set("exp.plan_parse_s", num(tr.total("exp.plan_parse")));
    m.set("trace.generate_s", num(tr.total("trace.generate")));
    m.set("trace.run_s", num(tr.total("trace.run")));
    m.set("sim.flit_hops", num(w.flitHops));
    m.set("sim.flits_delivered", num(w.flitsDelivered));
    m.set("sim.crossbar_traversals", num(w.crossbarTraversals));
    m.set("sim.fault_events", num(w.faultEvents));
    m.set("sim.packets_dropped", num(w.packetsDropped));
    m.set("power.evaluate_s", num(tr.total("power.evaluate")));
    m.set("exp.journal_append_s", num(tr.total("exp.journal_append")));
    m.set("exp.journal_appends", num(tr.count("exp.journal_append")));
    m.set("exp.result_key_s", num(tr.total("exp.result_key")));
    m.set("exp.store_put_s", num(tr.total("exp.store_put")));
    m.set("exp.store_lookup_s", num(tr.total("exp.store_lookup")));
    m.set("exp.store_hit_ratio",
          num(nPoints ? static_cast<double>(storeHits) / nPoints : 0.0));
    m.set("exp.runner_s", num(runnerS));
    m.set("exp.serial_points_s", num(untracedPoints));
    m.set("exp.report_s", num(tr.total("exp.report")));
    m.set("bench.tracing_overhead_frac",
          num(untracedPoints > 0 ? tracedPoints / untracedPoints - 1.0
                                 : 0.0));

    tr.writeChrome(traceOut);

    JsonValue o = JsonValue::object();
    o.set("points", num(nPoints));
    o.set("mismatched_points", num(mismatched));
    o.set("reports_match", JsonValue::boolean(reportsMatch));
    o.set("runner_threads", JsonValue::number(runner.threadCount()));
    o.set("runner_batch_lanes", JsonValue::number(runner.batchLaneCount()));
    o.set("runner_workers", JsonValue::number(workers));
    o.set("job_walls_s", std::move(jobWalls));
    o.set("metrics", std::move(m));
    std::cout << o.dump(-1) << "\n";
    return 0;
}

std::uint64_t
parseU64(const std::string &s)
{
    std::size_t used = 0;
    unsigned long long v = std::stoull(s, &used);
    if (used != s.size())
        fatal("expected an unsigned integer, got '", s, "'");
    return v;
}

int
usage()
{
    std::cerr << "usage: perfbench_driver info\n"
                 "       perfbench_driver prepare PLAN OUT DIVISOR SEED\n"
                 "       perfbench_driver setup PLAN REPS\n"
                 "       perfbench_driver check PLAN REPORT_OUT\n"
                 "       perfbench_driver trace PLAN THREADS TMPDIR "
                 "TRACE_OUT\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> a(argv + 1, argv + argc);
    try {
        if (a.size() == 1 && a[0] == "info")
            return cmdInfo();
        if (a.size() == 5 && a[0] == "prepare")
            return cmdPrepare(a[1], a[2], parseU64(a[3]), parseU64(a[4]));
        if (a.size() == 3 && a[0] == "setup")
            return cmdSetup(a[1], static_cast<int>(parseU64(a[2])));
        if (a.size() == 3 && a[0] == "check")
            return cmdCheck(a[1], a[2]);
        if (a.size() == 5 && a[0] == "trace")
            return cmdTrace(a[1], static_cast<int>(parseU64(a[2])), a[3],
                            a[4]);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
