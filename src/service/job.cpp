#include "src/service/job.h"

#include "src/dynamics/registry.h"
#include "src/support/assert.h"

namespace dynbcast {

ServiceJobPlan planServiceJob(const ServiceRequest& request) {
  ServiceJobPlan plan;
  plan.rowCount = scenarioRowCount(request.scenario);
  plan.beamCount = requestWantsBeamWitnesses(request)
                       ? request.scenario.sizes.size()
                       : 0;
  return plan;
}

std::string serviceTaskKey(const ServiceRequest& request,
                           std::size_t position) {
  return ServiceTaskKeys(request).key(position);
}

ServiceTaskKeys::ServiceTaskKeys(const ServiceRequest& request)
    : request_(request),
      plan_(planServiceJob(request)),
      members_(resolvedScenarioMemberSpecs(request.scenario)) {
  const ScenarioSpec& spec = request.scenario;
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  // The backend that actually runs a row, as a cache-key token. Below
  // the mirror threshold sparse and dense produce identical rows, so
  // everything normalizes to "dense" and requests differing only in
  // backend choice share cache cells. Above it the choice does not
  // depend on n, so one answer serves every size there.
  sparseAboveThreshold_ = scenarioRowRunsSparse(
      spec, DynamicsRegistry::instance().info(dynamics.name),
      kAutoSparseThreshold + 1);
  rowPrefix_ = "row/1 obj=" + objectiveName(spec.objective) +
               " dyn=" + dynamics.toString() +
               " cap=" + std::to_string(spec.roundCap) + " backend=";
}

std::string ServiceTaskKeys::key(std::size_t position) const {
  const ScenarioSpec& spec = request_.scenario;
  DYNBCAST_ASSERT(position < plan_.taskCount());

  if (position >= plan_.rowCount) {
    const std::size_t sizeIndex = position - plan_.rowCount;
    const std::size_t n = spec.sizes[sizeIndex];
    const bool searched = n <= request_.beamMaxN;
    return "beam/1 n=" + std::to_string(n) + " seed=" +
           std::to_string(scenarioBeamSeed(spec.masterSeed, sizeIndex)) +
           " width=" + std::to_string(request_.beamWidth) +
           " moves=" + std::to_string(kBeamRandomMoves) +
           " div=" + std::to_string(kBeamDiversityPercent) +
           " searched=" + (searched ? "1" : "0");
  }

  const ScenarioRowPlan row = planScenarioRow(spec, members_, position);
  const bool sparse = row.n > kAutoSparseThreshold && sparseAboveThreshold_;
  return rowPrefix_ + (sparse ? "sparse" : "dense") +
         " member=" + row.memberSpec + " n=" + std::to_string(row.n) +
         " seed=" + std::to_string(row.instanceSeed) +
         " mpos=" + std::to_string(row.memberIndex);
}

std::vector<ServiceTaskResult> executeServiceChunk(
    const ServiceRequest& request, std::size_t rowCount,
    const RowChunk& chunk) {
  if (chunk.front() >= rowCount) {
    // A beam task: the witness pass `dynbcast sweep` runs for its size.
    DYNBCAST_ASSERT(chunk.size() == 1);
    return {{scenarioBeamWitness(request.scenario, chunk.front() - rowCount,
                                 request.beamWidth, request.beamMaxN),
             true}};
  }
  std::vector<ServiceTaskResult> results;
  for (const SweepRow& row : runRowChunk(request.scenario, chunk)) {
    results.push_back({row.rounds, row.completed});
  }
  return results;
}

ServiceTaskResult executeServiceTask(const ServiceRequest& request,
                                     std::size_t position) {
  const ServiceJobPlan plan = planServiceJob(request);
  DYNBCAST_ASSERT(position < plan.taskCount());
  return executeServiceChunk(request, plan.rowCount, {position}).front();
}

std::vector<SweepRow> assembleServiceRows(
    const ScenarioSpec& spec,
    const std::vector<ServiceTaskResult>& rowResults) {
  DYNBCAST_ASSERT(rowResults.size() == scenarioRowCount(spec));
  std::vector<SweepRow> rows;
  rows.reserve(rowResults.size());
  for (std::size_t position = 0; position < rowResults.size(); ++position) {
    const ScenarioRowPlan plan = planScenarioRow(spec, position);
    SweepRow row;
    row.n = plan.n;
    row.seedIndex = plan.seedIndex;
    row.instanceSeed = plan.instanceSeed;
    // Member naming: membersFromSpecs names members by the canonical
    // spec string, and graph-model rows carry the model's canonical
    // spec, so the plan's memberSpec IS the row's member name.
    row.member = plan.memberSpec;
    row.rounds = rowResults[position].rounds;
    row.completed = rowResults[position].completed;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace dynbcast
