#include "cli/cli.hh"

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>

#include "common/env.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "common/version.hh"
#include "exp/journal.hh"
#include "exp/plan_io.hh"
#include "exp/report.hh"
#include "exp/result_store.hh"
#include "exp/serialize.hh"
#include "power/tech_params.hh"
#include "sim/router_config.hh"
#include "topo/table4.hh"
#include "trace/workloads.hh"

namespace snoc::cli {

namespace {

int
usage(std::ostream &err)
{
    err << "usage: snoc <command> [args]\n"
           "  run <plan.json> [--format table|csv|json] [--threads N]\n"
           "      [--fast] [--manifest PATH | --no-manifest]\n"
           "      [--resume] [--journal PATH | --no-journal]\n"
           "      [--store DIR]\n"
           "  cache <stats|clear|prune> [--store DIR]\n"
           "  list <topologies|routings|patterns|workloads|"
           "collectives|configs|techs|formats|knobs>\n"
           "      [--markdown]\n"
           "  describe <scenario.json | plan.json>\n"
           "  version\n"
           "exit status: 0 ok, 1 error, 2 usage, 3 jobs failed\n";
    return 2;
}

// --- snoc list --------------------------------------------------------------

void
listKnobs(std::ostream &out, bool markdown)
{
    if (markdown) {
        out << "| knob | default | accepted values | effect |\n"
            << "|---|---|---|---|\n";
        for (const EnvKnob &k : envKnobs())
            out << "| `" << k.name << "` | " << k.fallback << " | "
                << k.values << " | " << k.effect << " |\n";
        return;
    }
    TextTable t({"knob", "default", "accepted values", "effect"});
    for (const EnvKnob &k : envKnobs())
        t.addRow({k.name, k.fallback, k.values, k.effect});
    t.print(out);
}

int
cmdList(const std::vector<std::string> &args, std::ostream &out,
        std::ostream &err)
{
    bool markdown = false;
    std::string axis;
    for (const std::string &a : args) {
        if (a == "--markdown")
            markdown = true;
        else if (axis.empty())
            axis = a;
        else
            return usage(err);
    }
    if (axis.empty())
        return usage(err);

    auto plain = [&out](const std::vector<std::string> &names) {
        for (const std::string &n : names)
            out << n << "\n";
        return 0;
    };

    if (axis == "topologies")
        return plain(namedTopologyIds());
    if (axis == "routings")
        return plain(routingModeNames());
    if (axis == "patterns")
        return plain(patternNames());
    if (axis == "workloads")
        return plain(workloadNames());
    if (axis == "collectives")
        return plain(collectiveKindNames());
    if (axis == "configs")
        return plain(RouterConfig::names());
    if (axis == "techs")
        return plain(techCornerNames());
    if (axis == "formats")
        return plain(resultSinkFormats());
    if (axis == "knobs") {
        listKnobs(out, markdown);
        return 0;
    }
    err << "error: unknown axis '" << axis
        << "' (expected topologies, routings, patterns, workloads, "
           "collectives, configs, techs, formats or knobs)\n";
    return 2;
}

// --- snoc describe ----------------------------------------------------------

void
describeScenario(const Scenario &s, std::ostream &out,
                 const std::string &indent)
{
    out << indent << "label    " << s.describe() << "\n"
        << indent << "topology " << s.topology << "  router "
        << s.routerConfig << "  routing " << to_string(s.routing)
        << "  smart H=" << s.link.hopsPerCycle << "\n";
    switch (s.traffic.kind) {
      case TrafficSpec::Kind::Workload:
        out << indent << "traffic  workload " << s.traffic.workload
            << " for " << s.traffic.workloadCycles << " cycles\n";
        break;
      case TrafficSpec::Kind::ClosedLoop: {
        const ClosedLoopSpec &cl = s.traffic.closedLoop;
        out << indent << "traffic  closed-loop "
            << to_string(s.traffic.pattern) << ", window " << cl.window
            << ", issue prob " << cl.issueProb << ", memory delay "
            << cl.memoryDelay << "\n"
            << indent << "         req/reply/fwd "
            << cl.requestSizeFlits << "/" << cl.replySizeFlits << "/"
            << cl.forwardSizeFlits << " flits, forward fraction "
            << cl.forwardFraction << ", sweep axis "
            << to_string(cl.sweepAxis);
        if (cl.stopAfterRequests > 0)
            out << ", stop after " << cl.stopAfterRequests
                << " requests";
        out << "\n";
        break;
      }
      case TrafficSpec::Kind::Collective: {
        const CollectiveSpec &coll = s.traffic.collective;
        out << indent << "traffic  collective "
            << to_string(coll.kind) << ", root " << coll.root
            << ", rounds "
            << (coll.rounds > 0 ? std::to_string(coll.rounds)
                                : std::string("unlimited"))
            << ", gap " << coll.gapCycles << "\n"
            << indent << "         payload/control "
            << coll.payloadSizeFlits << "/" << coll.controlSizeFlits
            << " flits";
        if (coll.fanout > 0)
            out << ", fanout " << coll.fanout;
        if (coll.phases > 0)
            out << ", phases " << coll.phases;
        out << "\n";
        break;
      }
      case TrafficSpec::Kind::Synthetic:
        out << indent << "traffic  " << to_string(s.traffic.pattern)
            << " @ load " << s.load << ", "
            << s.traffic.packetSizeFlits << " flits/packet\n";
        break;
    }
    out << indent << "windows  warmup " << s.sim.warmupCycles
        << ", measure " << s.sim.measureCycles << "\n"
        << indent << "seeds    traffic " << s.seed << ", routing "
        << s.routingSeed << "\n";
    if (s.faults.active())
        out << indent << "faults   " << s.faults.events.size()
            << " explicit events, random fraction "
            << s.faults.randomLinkFraction << " at cycle "
            << s.faults.randomFailAt << " (seed "
            << s.faults.faultSeed << ")\n";
    if (s.energy.enabled)
        out << indent << "energy   " << s.energy.tech << " corner, "
            << s.energy.flitBits << "-bit flits\n";
}

int
cmdDescribe(const std::string &path, std::ostream &out)
{
    std::string resolved = resolvePlanPath(path);
    JsonValue doc =
        JsonValue::parse(readTextFile(resolved), resolved);

    if (doc.find("jobs")) {
        ExperimentPlan plan = planFromJson(doc);
        out << "plan     " << (plan.name.empty() ? "(unnamed)"
                                                 : plan.name)
            << "\n"
            << "file     " << resolved << "\n"
            << "jobs     " << plan.jobs.size() << "\n\n";
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            const Job &job = plan.jobs[i];
            out << "[" << i << "] ";
            switch (job.kind) {
            case Job::Kind::Single:
                out << "single\n";
                break;
            case Job::Kind::Sweep: {
                out << "sweep over " << job.loads.size()
                    << " loads (";
                for (std::size_t k = 0; k < job.loads.size(); ++k)
                    out << (k ? " " : "") << job.loads[k];
                out << ")"
                    << (job.stopAtSaturation ? ", stop at saturation"
                                             : "")
                    << "\n";
                break;
            }
            case Job::Kind::Saturation:
                out << "saturation search ["
                    << job.saturation.loLoad << ", "
                    << job.saturation.hiLoad << "], tolerance "
                    << job.saturation.tolerance << ", max "
                    << job.saturation.maxProbes << " probes\n";
                break;
            }
            describeScenario(job.scenario, out, "    ");
        }
        out << "\ncanonical form:\n" << serializePlan(plan);
        return 0;
    }

    Scenario s = scenarioFromJson(doc);
    out << "scenario\n"
        << "file     " << resolved << "\n";
    describeScenario(s, out, "");
    out << "\ncanonical form:\n" << serializeScenario(s);
    return 0;
}

// --- snoc run ---------------------------------------------------------------

void
writeManifest(const std::string &manifestPath,
              const std::string &planFile, const ExperimentPlan &plan,
              const std::vector<JobResult> &results, int threads,
              const std::string &format, bool fast,
              std::size_t resumed, const ResultStore *store)
{
    std::size_t points = 0;
    std::size_t jobsFailed = 0;
    int cacheHits = 0;
    int cacheMisses = 0;
    int retries = 0;
    for (const JobResult &r : results) {
        points += r.points.size();
        jobsFailed += r.status == JobStatus::Failed ? 1 : 0;
        cacheHits += r.cacheHits;
        cacheMisses += r.cacheMisses;
        retries += r.retries;
    }

    JsonValue m = JsonValue::object();
    m.set("tool", JsonValue::string("snoc"));
    m.set("version", JsonValue::string(gitDescribe()));
    m.set("planFile", JsonValue::string(planFile));
    m.set("planName", JsonValue::string(plan.name));
    m.set("jobs", JsonValue::number(
                      static_cast<std::uint64_t>(plan.jobs.size())));
    m.set("points",
          JsonValue::number(static_cast<std::uint64_t>(points)));
    m.set("threads", JsonValue::number(threads));
    m.set("format", JsonValue::string(format));
    m.set("fastMode", JsonValue::boolean(fast));
    m.set("jobsFailed", JsonValue::number(
                            static_cast<std::uint64_t>(jobsFailed)));
    m.set("jobsResumed", JsonValue::number(
                             static_cast<std::uint64_t>(resumed)));
    m.set("cacheHits", JsonValue::number(cacheHits));
    m.set("cacheMisses", JsonValue::number(cacheMisses));
    m.set("retries", JsonValue::number(retries));
    if (store) {
        m.set("resultStore", JsonValue::string(store->root()));
        m.set("resultStoreStamp", JsonValue::string(store->stamp()));
    }

    JsonValue knobs = JsonValue::object();
    for (const EnvKnob &k : envKnobs()) {
        std::string v = envRaw(k.name);
        knobs.set(k.name,
                  v.empty() ? JsonValue() : JsonValue::string(v));
    }
    m.set("knobs", std::move(knobs));

    JsonValue seeds = JsonValue::array();
    for (const Job &job : plan.jobs) {
        JsonValue s = JsonValue::object();
        s.set("label", JsonValue::string(job.scenario.describe()));
        s.set("seed", JsonValue::number(job.scenario.seed));
        s.set("routingSeed",
              JsonValue::number(job.scenario.routingSeed));
        if (job.scenario.faults.active())
            s.set("faultSeed",
                  JsonValue::number(job.scenario.faults.faultSeed));
        seeds.push(std::move(s));
    }
    m.set("seeds", std::move(seeds));

    // Per-job execution record: status, wall time, retries, cache
    // traffic. Reproducibility bookkeeping only — never an input to
    // simulation, so timing jitter here cannot perturb results.
    JsonValue jobStats = JsonValue::array();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &r = results[i];
        JsonValue j = JsonValue::object();
        j.set("job",
              JsonValue::number(static_cast<std::uint64_t>(i)));
        j.set("label",
              JsonValue::string(plan.jobs[i].scenario.describe()));
        j.set("status", JsonValue::string(
                            r.status == JobStatus::Ok ? "ok"
                                                      : "failed"));
        if (!r.error.empty())
            j.set("error", JsonValue::string(r.error));
        j.set("wallMs", JsonValue::number(r.wallMs));
        j.set("retries", JsonValue::number(r.retries));
        j.set("cacheHits", JsonValue::number(r.cacheHits));
        j.set("cacheMisses", JsonValue::number(r.cacheMisses));
        jobStats.push(std::move(j));
    }
    m.set("jobStats", std::move(jobStats));

    std::ofstream file(manifestPath);
    if (!file)
        fatal("cannot write run manifest '", manifestPath, "'");
    file << m.dump(2) << "\n";
}

int
cmdRun(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    std::string path;
    std::string format = "table";
    std::string manifestPath;
    std::string journalPath;
    std::string storeRoot;
    bool noManifest = false;
    bool noJournal = false;
    bool resume = false;
    bool fast = envFlag(kEnvBenchFast);
    int threads = 0;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if ((a == "--format" || a == "-f") && i + 1 < args.size()) {
            format = args[++i];
        } else if (a == "--threads" && i + 1 < args.size()) {
            const std::string &v = args[++i];
            char *end = nullptr;
            long n = std::strtol(v.c_str(), &end, 10);
            if (end != v.c_str() + v.size() || n < 1 || n > 4096)
                fatal("--threads expects a positive integer, got '",
                      v, "'");
            threads = static_cast<int>(n);
        } else if (a == "--manifest" && i + 1 < args.size()) {
            manifestPath = args[++i];
        } else if (a == "--no-manifest") {
            noManifest = true;
        } else if (a == "--journal" && i + 1 < args.size()) {
            journalPath = args[++i];
        } else if (a == "--no-journal") {
            noJournal = true;
        } else if (a == "--resume") {
            resume = true;
        } else if (a == "--store" && i + 1 < args.size()) {
            storeRoot = args[++i];
        } else if (a == "--fast") {
            fast = true;
        } else if (path.empty() && !a.empty() && a[0] != '-') {
            path = a;
        } else {
            return usage(err);
        }
    }
    if (path.empty())
        return usage(err);
    if (resume && noJournal)
        fatal("--resume needs the journal; drop --no-journal");

    std::string resolved = resolvePlanPath(path);
    ExperimentPlan plan =
        parsePlan(readTextFile(resolved), resolved);
    if (fast)
        applyFastMode(plan);

    // The journal binds to the plan's canonical content + code
    // version; --resume against anything else fails loudly.
    std::string hash = planHash(plan);
    if (journalPath.empty())
        journalPath =
            envString(kEnvBenchOut, ".") + "/snoc_journal.jsonl";

    std::map<std::size_t, JobResult> completed;
    if (!noJournal) {
        if (resume)
            completed = ResultJournal::replay(journalPath, hash);
        else
            // A fresh run must not inherit rows from an earlier
            // crash; stale journals only feed explicit --resume.
            ResultJournal::remove(journalPath);
    }

    RunnerOptions opts;
    opts.threads = threads;
    // One bad job becomes a failed row (and exit status 3), not a
    // dead campaign — the CLI is where overnight runs live.
    opts.onFailure = FailurePolicy::Record;

    std::unique_ptr<ResultStore> store;
    if (storeRoot.empty())
        storeRoot = ResultStore::resolveRoot();
    if (!storeRoot.empty()) {
        store = std::make_unique<ResultStore>(storeRoot);
        opts.store = store.get();
    }

    std::unique_ptr<ResultJournal> journal;
    if (!noJournal)
        journal =
            std::make_unique<ResultJournal>(journalPath, hash);
    if (journal)
        opts.jobDone = [&journal](std::size_t idx,
                                  const JobResult &r) {
            // Only clean completions are durable: a failed job is
            // re-attempted by the next --resume.
            if (r.status == JobStatus::Ok)
                journal->append(idx, r);
        };
    if (!completed.empty())
        opts.completed = &completed;

    std::vector<JobResult> results;
    {
        // Scope the sink: JsonSink emits its closing bracket on
        // destruction, which must precede any further output.
        std::unique_ptr<ResultSink> sink =
            makeResultSink(format, out);
        results = runPlanReport(plan, *sink, opts);
    }

    std::size_t jobsFailed = 0;
    for (const JobResult &r : results)
        jobsFailed += r.status == JobStatus::Failed ? 1 : 0;

    if (journal && jobsFailed == 0) {
        // Every job is in the results file; the journal has nothing
        // left to protect.
        journal.reset();
        ResultJournal::remove(journalPath);
    }

    if (!noManifest) {
        if (manifestPath.empty())
            manifestPath = envString(kEnvBenchOut, ".") +
                           "/snoc_manifest.json";
        writeManifest(manifestPath, resolved, plan, results,
                      ExperimentRunner(opts).threadCount(), format,
                      fast, completed.size(), store.get());
    }

    if (jobsFailed > 0) {
        err << jobsFailed << " of " << plan.jobs.size()
            << " jobs failed:\n";
        TextTable t({"job", "scenario", "error"});
        for (std::size_t i = 0; i < results.size(); ++i)
            if (results[i].status == JobStatus::Failed)
                t.addRow({TextTable::fmt(
                              static_cast<std::uint64_t>(i)),
                          plan.jobs[i].scenario.describe(),
                          results[i].error});
        t.print(err);
        if (journal)
            err << "completed jobs are journaled; rerun with "
                   "--resume to retry only the failures\n";
        return 3;
    }
    return 0;
}

// --- snoc cache -------------------------------------------------------------

int
cmdCache(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    std::string action;
    std::string storeRoot;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--store" && i + 1 < args.size())
            storeRoot = args[++i];
        else if (action.empty() && !a.empty() && a[0] != '-')
            action = a;
        else
            return usage(err);
    }
    if (action != "stats" && action != "clear" && action != "prune")
        return usage(err);

    if (storeRoot.empty())
        storeRoot = ResultStore::resolveRoot();
    if (storeRoot.empty())
        fatal("no result store configured (set ", kEnvResultStore,
              " or pass --store DIR)");

    ResultStore store(storeRoot);
    if (action == "stats") {
        ResultStore::Usage u = store.usage();
        out << "store    " << store.root() << "\n"
            << "stamp    " << store.stamp() << "\n"
            << "entries  " << u.entries << "\n"
            << "stale    " << u.stale << "\n"
            << "corrupt  " << u.corrupt << "\n"
            << "bytes    " << u.bytes << "\n";
    } else if (action == "clear") {
        out << "removed " << store.clear() << " entries\n";
    } else {
        out << "removed " << store.prune()
            << " stale/corrupt entries\n";
    }
    return 0;
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    // Nothing reads an undeclared knob, so a retired or misspelled
    // one would otherwise be ignored without a word.
    for (const std::string &name : undeclaredEnvKnobs())
        err << "warning: " << name
            << " is set but is not a snoc knob; it has no effect (see "
               "`snoc list knobs`)\n";
    if (args.empty())
        return usage(err);
    const std::string &cmd = args[0];
    std::vector<std::string> rest(args.begin() + 1, args.end());

    try {
        if (cmd == "run")
            return cmdRun(rest, out, err);
        if (cmd == "cache")
            return cmdCache(rest, out, err);
        if (cmd == "list")
            return cmdList(rest, out, err);
        if (cmd == "describe" && rest.size() == 1)
            return cmdDescribe(rest[0], out);
        if (cmd == "version" || cmd == "--version") {
            out << "snoc " << gitDescribe() << "\n";
            return 0;
        }
        if (cmd == "help" || cmd == "--help") {
            usage(out);
            return 0;
        }
    } catch (const FatalError &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
    return usage(err);
}

} // namespace snoc::cli
