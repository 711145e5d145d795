#include "cluster/controller.h"

#include "model/metrics.h"
#include "model/validation.h"
#include "workload/sql_parser.h"

namespace qcap {

Status Controller::RecordSql(const std::string& sql, double cost_seconds,
                             uint64_t count) {
  SqlParser parser(catalog_);
  QCAP_ASSIGN_OR_RETURN(Query query, parser.Parse(sql, cost_seconds));
  history_.Record(query, count);
  return Status::OK();
}

Result<AllocationReport> Controller::Reallocate(
    Allocator* allocator, const std::vector<BackendSpec>& backends,
    const ClassifierOptions& options) {
  if (allocator == nullptr) {
    return Status::InvalidArgument("allocator must not be null");
  }
  Classifier classifier(catalog_, options);
  QCAP_ASSIGN_OR_RETURN(Classification cls, classifier.Classify(history_));
  QCAP_ASSIGN_OR_RETURN(Allocation alloc, allocator->Allocate(cls, backends));
  QCAP_RETURN_NOT_OK(ValidateAllocation(cls, alloc, backends));

  AllocationReport report;
  report.model_scale = Scale(alloc, backends);
  report.model_speedup = Speedup(alloc, backends);
  report.degree_of_replication = DegreeOfReplication(alloc, cls.catalog);

  const bool needs_fragmentation = options.granularity != Granularity::kNone;
  if (current_.has_value() &&
      current_->allocation.num_fragments() == cls.catalog.size()) {
    QCAP_ASSIGN_OR_RETURN(
        report.transition,
        physical_.Plan(current_->allocation, alloc, cls.catalog,
                       needs_fragmentation));
  } else {
    QCAP_ASSIGN_OR_RETURN(
        report.transition,
        physical_.InitialLoad(alloc, cls.catalog, needs_fragmentation));
  }

  report.classification = std::move(cls);
  report.allocation = std::move(alloc);
  current_ = std::move(report);
  backends_ = backends;
  return *current_;
}

Result<SimStats> Controller::ProcessClosed(uint64_t num_requests,
                                           size_t concurrency,
                                           const SimulationConfig& config) const {
  if (!current_.has_value()) {
    return Status::InvalidArgument("no allocation installed; call Reallocate");
  }
  QCAP_ASSIGN_OR_RETURN(
      ClusterSimulator sim,
      ClusterSimulator::Create(current_->classification, current_->allocation,
                               backends_, config));
  return sim.RunClosed(num_requests, concurrency);
}

Result<SimStats> Controller::ProcessOpen(double duration_seconds,
                                         double arrival_rate,
                                         const SimulationConfig& config) const {
  if (!current_.has_value()) {
    return Status::InvalidArgument("no allocation installed; call Reallocate");
  }
  QCAP_ASSIGN_OR_RETURN(
      ClusterSimulator sim,
      ClusterSimulator::Create(current_->classification, current_->allocation,
                               backends_, config));
  return sim.RunOpen(duration_seconds, arrival_rate);
}

Result<std::vector<SimStats>> Controller::ProcessOpenSweep(
    double duration_seconds, double arrival_rate,
    const SimulationConfig& config, const SweepOptions& sweep) const {
  if (!current_.has_value()) {
    return Status::InvalidArgument("no allocation installed; call Reallocate");
  }
  QCAP_ASSIGN_OR_RETURN(
      ClusterSimulator sim,
      ClusterSimulator::Create(current_->classification, current_->allocation,
                               backends_, config));
  return sim.RunOpenSweep(duration_seconds, arrival_rate, sweep);
}

}  // namespace qcap
