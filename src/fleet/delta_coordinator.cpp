#include "fleet/delta_coordinator.h"

#include <algorithm>

#include "util/check.h"

namespace sturgeon::fleet {

DeltaCoordinator::DeltaCoordinator(DeltaCoordinatorConfig config,
                                   double budget_w, std::size_t nodes)
    : config_(config), budget_w_(budget_w), caps_(nodes, 0.0) {
  STURGEON_CHECK(budget_w_ > 0.0, "DeltaCoordinator: budget must be > 0");
  STURGEON_CHECK(config_.pressure_ratio > config_.shrink_ratio,
                 "DeltaCoordinator: pressure_ratio must exceed shrink_ratio");
}

void DeltaCoordinator::rebase(const std::vector<double>& caps) {
  STURGEON_CHECK(caps.size() == caps_.size(),
                 "DeltaCoordinator::rebase: cap vector size mismatch");
  caps_ = caps;
  cap_sum_ = 0.0;
  for (double c : caps_) cap_sum_ += c;
  STURGEON_CHECK(cap_sum_ <= budget_w_ * (1.0 + cluster::kBudgetTolerance),
                 "DeltaCoordinator::rebase: caps exceed budget ("
                     << cap_sum_ << " > " << budget_w_ << ")");
}

double DeltaCoordinator::revise(std::size_t i,
                                const cluster::NodeReport& r) {
  const double cap = caps_[i];
  double next = cap;
  ++revisions_;
  if (r.dead()) {
    // Crashed: the package still draws uncore power, nothing more.
    next = std::min(cap, r.idle_w);
  } else if (r.rejoined) {
    // Post-outage reports predate the crash; re-grant a floor cap and
    // let pressure revisions grow it back.
    const double floor =
        std::max(r.idle_w, config_.min_cap_fraction * r.budget_w);
    next = std::min(cap + pool_w(), std::max(cap, floor));
  } else if (!r.qos_met || r.power_w > config_.pressure_ratio * cap) {
    const double want =
        std::min(r.budget_w, cap + config_.grant_fraction * r.budget_w);
    next = cap + std::max(0.0, std::min(want - cap, pool_w()));
    if (next > cap) ++grants_;
  } else if (r.alive() && r.power_w < config_.shrink_ratio * cap) {
    const double floor =
        std::max(r.idle_w, config_.min_cap_fraction * r.budget_w);
    const double target = r.power_w + config_.headroom_margin * r.budget_w;
    next = std::max(floor, std::min(cap, target));
    if (next < cap) ++shrinks_;
  }
  cap_sum_ += next - cap;
  caps_[i] = next;
  return next;
}

}  // namespace sturgeon::fleet
