/**
 * @file
 * JSON round-trip layer for the experiment-facing data structures.
 *
 * Scenario, TrafficSpec, FaultPlan, SimConfig, LinkConfig, Job and
 * ExperimentPlan serialize to (and parse from) the plan-file schema
 * documented in docs/SCENARIO_SCHEMA.md. Writers emit the canonical
 * minimal form — members at their default value are omitted, member
 * order is fixed — so `parse(serialize(x)) == x` holds exactly and
 * committed plan files diff cleanly. Readers are strict: unknown
 * members, wrong types and unregistered axis names (routing modes,
 * patterns, router configs, workloads, topology ids) all raise
 * FatalError with the JSON path of the offending value
 * (e.g. "$.jobs[2].scenario.routing").
 */

#ifndef SNOC_EXP_SERIALIZE_HH
#define SNOC_EXP_SERIALIZE_HH

#include <string>

#include "common/json.hh"
#include "exp/experiment_plan.hh"

namespace snoc {

// --- struct -> JsonValue (canonical minimal form) ---------------------------

JsonValue toJson(const TrafficSpec &traffic);
JsonValue toJson(const FaultPlan &faults);
JsonValue toJson(const EnergySpec &energy);
JsonValue toJson(const SimConfig &sim);
JsonValue toJson(const LinkConfig &link);
JsonValue toJson(const Scenario &scenario);
JsonValue toJson(const Job &job);
JsonValue toJson(const ExperimentPlan &plan);

// --- struct -> JsonValue (full form, for display) --------------------------

/**
 * Every member the schema declares for this value, defaults included,
 * in canonical order. Gated members still follow their gate (e.g.
 * `routingSeed` only under UGAL routing). `snoc describe` and the run
 * manifest print it; it is never a cache key.
 */
JsonValue toFullJson(const Scenario &scenario);
JsonValue toFullJson(const Job &job);

// --- JsonValue -> struct (strict; `path` prefixes error messages) -----------

TrafficSpec trafficSpecFromJson(const JsonValue &v,
                                const std::string &path = "$");
EnergySpec energySpecFromJson(const JsonValue &v,
                              const std::string &path = "$");
FaultPlan faultPlanFromJson(const JsonValue &v,
                            const std::string &path = "$");
SimConfig simConfigFromJson(const JsonValue &v,
                            const std::string &path = "$");
LinkConfig linkConfigFromJson(const JsonValue &v,
                              const std::string &path = "$");
Scenario scenarioFromJson(const JsonValue &v,
                          const std::string &path = "$");
Job jobFromJson(const JsonValue &v, const std::string &path = "$");
ExperimentPlan planFromJson(const JsonValue &v,
                            const std::string &path = "$");

// --- result rows (store / journal payloads) ---------------------------------
//
// Measured results round-trip exactly: doubles are emitted as their
// shortest round-trip token (std::to_chars) and parsed with strtod,
// so a SimResult read back from the content-addressed result store
// or the write-ahead journal is bitwise identical to the freshly
// simulated one — the property the cache-hit and crash-resume
// byte-identity tests pin. EnergyMetrics are deliberately NOT
// serialized: they are a pure function of (scenario, sim) and the
// runner re-derives them after every run, cached or replayed.

JsonValue toJson(const SimCounters &counters);
JsonValue toJson(const SimResult &result);
JsonValue toJson(const ScenarioResult &point);
JsonValue toJson(const JobResult &result);

SimCounters simCountersFromJson(const JsonValue &v,
                                const std::string &path = "$");
SimResult simResultFromJson(const JsonValue &v,
                            const std::string &path = "$");
ScenarioResult scenarioResultFromJson(const JsonValue &v,
                                      const std::string &path = "$");
JobResult jobResultFromJson(const JsonValue &v,
                            const std::string &path = "$");

// --- text round trip --------------------------------------------------------

/** Pretty-printed canonical JSON, newline-terminated. */
std::string serializeScenario(const Scenario &scenario);
std::string serializePlan(const ExperimentPlan &plan);

/**
 * Parse a scenario / plan document. `origin` labels parse errors
 * (pass the file name when reading a file).
 * @throws FatalError with origin:line:col (syntax) or JSON path
 *         (schema) on malformed input
 */
Scenario parseScenario(const std::string &text,
                       const std::string &origin = "scenario");
ExperimentPlan parsePlan(const std::string &text,
                         const std::string &origin = "plan");

} // namespace snoc

#endif // SNOC_EXP_SERIALIZE_HH
