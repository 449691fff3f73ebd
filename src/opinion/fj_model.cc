#include "opinion/fj_model.h"

#include <algorithm>
#include <cassert>

namespace voteopt::opinion {

namespace {

/// Writes b(t+1)[v] into out[v] for the first `count` of `rows`, all rows
/// with in-edges. This is the one FJ row expression: every propagation path
/// runs it, so every path sums the same products in in-CSR order.
void StepRows(const graph::Graph& graph, const graph::NodeId* rows,
              size_t count, const double* current, const double* initial,
              const double* stubbornness, double* out) {
  const uint64_t* offsets = graph.InOffsets().data();
  const graph::NodeId* sources = graph.InSources().data();
  const double* weights = graph.InWeightsRaw().data();
  for (size_t i = 0; i < count; ++i) {
    const graph::NodeId v = rows[i];
    double aggregated = 0.0;
    for (uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      aggregated += weights[e] * current[sources[e]];
    }
    const double d = stubbornness[v];
    out[v] = (1.0 - d) * aggregated + d * initial[v];
  }
}

}  // namespace

FJModel::Schedule FJModel::CompileSchedule(const graph::Graph& graph) {
  const uint32_t n = graph.num_nodes();
  // Kahn pass over the out-CSR: a row is released once all its in-sources
  // are, and settles one step after the latest of them. Rows never released
  // sit on or downstream of a cycle.
  std::vector<uint64_t> pending(n);
  std::vector<uint32_t> settle(n, 0);
  std::vector<graph::NodeId> released;
  released.reserve(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    pending[v] = graph.InDegree(v);
    if (pending[v] == 0) released.push_back(v);
  }
  const size_t sourceless = released.size();
  for (size_t head = 0; head < released.size(); ++head) {
    const graph::NodeId u = released[head];
    for (const graph::NodeId v : graph.OutNeighbors(u)) {
      settle[v] = std::max(settle[v], settle[u] + 1);
      if (--pending[v] == 0) released.push_back(v);
    }
  }

  Schedule schedule;
  schedule.rows.reserve(n - sourceless);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (pending[v] != 0) settle[v] = Schedule::kNeverSettles;
    if (graph.InDegree(v) != 0) schedule.rows.push_back(v);
  }
  std::stable_sort(schedule.rows.begin(), schedule.rows.end(),
                   [&settle](graph::NodeId a, graph::NodeId b) {
                     return settle[a] > settle[b];
                   });
  schedule.settle.reserve(schedule.rows.size());
  for (const graph::NodeId v : schedule.rows) {
    schedule.settle.push_back(settle[v]);
  }
  return schedule;
}

const FJModel::Schedule& FJModel::schedule() const {
  std::call_once(schedule_once_,
                 [this] { schedule_ = CompileSchedule(*graph_); });
  return schedule_;
}

void FJModel::Step(const std::vector<double>& current,
                   const std::vector<double>& initial,
                   const std::vector<double>& stubbornness,
                   std::vector<double>* out) const {
  assert(current.size() == graph_->num_nodes());
  assert(initial.size() == graph_->num_nodes());
  assert(stubbornness.size() == graph_->num_nodes());
  assert(out != &current);
  const Schedule& plan = schedule();
  // No social signal: a row without in-edges holds its previous opinion.
  *out = current;
  StepRows(*graph_, plan.rows.data(), plan.rows.size(), current.data(),
           initial.data(), stubbornness.data(), out->data());
}

std::vector<double> FJModel::Run(
    const Campaign& campaign, const std::vector<graph::NodeId>& seeds,
    uint32_t horizon, std::vector<std::vector<double>>* trajectory) const {
  assert(campaign.initial_opinions.size() == graph_->num_nodes());
  assert(campaign.stubbornness.size() == graph_->num_nodes());
  const Schedule& plan = schedule();
  std::vector<double> current = campaign.initial_opinions;
  for (const graph::NodeId s : seeds) current[s] = 1.0;
  if (trajectory != nullptr) {
    trajectory->reserve(horizon + 1);
    trajectory->push_back(current);
  }
  std::vector<double> next = current;
  size_t active = plan.rows.size();
  for (uint32_t step = 0; step < horizon; ++step) {
    // A row that settled before this step already holds its final value in
    // both buffers.
    while (active > 0 && plan.settle[active - 1] < step) --active;
    StepRows(*graph_, plan.rows.data(), active, current.data(),
             campaign.initial_opinions.data(), campaign.stubbornness.data(),
             next.data());
    for (const graph::NodeId s : seeds) next[s] = 1.0;
    std::swap(current, next);
    if (trajectory != nullptr) trajectory->push_back(current);
  }
  return current;
}

std::vector<double> FJModel::Propagate(const Campaign& campaign,
                                       uint32_t horizon) const {
  return Run(campaign, {}, horizon, nullptr);
}

std::vector<double> FJModel::PropagateWithSeeds(
    const Campaign& campaign, const std::vector<graph::NodeId>& seeds,
    uint32_t horizon) const {
  return Run(campaign, seeds, horizon, nullptr);
}

std::vector<std::vector<double>> FJModel::Trajectory(const Campaign& campaign,
                                                     uint32_t horizon) const {
  std::vector<std::vector<double>> trajectory;
  Run(campaign, {}, horizon, &trajectory);
  return trajectory;
}

}  // namespace voteopt::opinion
