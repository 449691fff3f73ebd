#include "core/walk_set.h"

#include <algorithm>
#include <cassert>

namespace voteopt::core {

WalkSet::WalkSet(uint32_t num_nodes)
    : num_nodes_(num_nodes),
      lambda_(num_nodes, 0),
      start_weight_(num_nodes, 1.0) {
  offsets_.push_back(0);
}

WalkSet::WalkSet(const WalkSet& other)
    : num_nodes_(other.num_nodes_),
      finalized_(other.finalized_),
      adopted_(other.adopted_),
      nodes_(other.nodes_),
      offsets_(other.offsets_),
      starts_(other.starts_),
      lambda_(other.lambda_),
      start_weight_(other.start_weight_),
      index_offsets_(other.index_offsets_),
      index_entries_(other.index_entries_),
      keep_alive_(other.keep_alive_),
      eff_len_(other.eff_len_),
      values_(other.values_),
      est_sum_(other.est_sum_),
      cuts_(other.cuts_) {
  if (adopted_) {
    frozen_ = other.frozen_;  // shared immutable storage, pinned above
  } else if (finalized_) {
    FreezeOwned();  // re-point the views at this copy's vectors
  }
}

WalkSet& WalkSet::operator=(const WalkSet& other) {
  if (this != &other) *this = WalkSet(other);  // copy, then safe move
  return *this;
}

std::unique_ptr<WalkSet> WalkSet::AdoptFrozen(
    uint32_t num_nodes, const Frozen& frozen,
    std::shared_ptr<const void> keep_alive) {
  assert(frozen.offsets.size() == frozen.starts.size() + 1);
  assert(frozen.lambda.size() == num_nodes);
  assert(frozen.start_weight.size() == num_nodes);
  assert(frozen.index_offsets.size() == num_nodes + size_t{1});
  auto set = std::unique_ptr<WalkSet>(new WalkSet(num_nodes));
  // Drop the owned build-path storage allocated by the constructor; every
  // accessor routes through the frozen views from here on.
  set->offsets_.clear();
  set->offsets_.shrink_to_fit();
  set->lambda_.clear();
  set->lambda_.shrink_to_fit();
  set->start_weight_.clear();
  set->start_weight_.shrink_to_fit();
  set->frozen_ = frozen;
  set->keep_alive_ = std::move(keep_alive);
  set->finalized_ = true;
  set->adopted_ = true;
  return set;
}

std::unique_ptr<WalkSet> WalkSet::ShareFrozen(
    std::shared_ptr<const void> keep_alive) const {
  assert(finalized_);
  assert((adopted_ || keep_alive != nullptr) &&
         "owned frozen data must be pinned by the caller");
  return AdoptFrozen(num_nodes_, frozen_,
                     adopted_ ? keep_alive_ : std::move(keep_alive));
}

namespace {

/// Appends `ends` (a run of offset-array entries) moved by `shift`.
/// Unsigned wrap-around makes a backwards move an ordinary addition.
void AppendShifted(std::span<const uint64_t> ends, uint64_t shift,
                   std::vector<uint64_t>* out) {
  const size_t at = out->size();
  out->insert(out->end(), ends.begin(), ends.end());
  for (size_t i = at; i < out->size(); ++i) (*out)[i] += shift;
}

}  // namespace

std::unique_ptr<WalkSet> WalkSet::Splice(
    const WalkSet& base, std::span<const uint64_t> walk_indices,
    const WalkBuffer& replacements) {
  assert(base.finalized_);
  assert(walk_indices.size() == replacements.num_walks());
  const Frozen& from = base.frozen_;
  const uint32_t n = base.num_nodes_;
  const size_t walks = from.starts.size();
  auto set = std::unique_ptr<WalkSet>(new WalkSet(n));

  // Walks: runs of kept walks copy between the replaced ones, each run's
  // offsets (stored as walk ends after the leading 0) shifted by how far
  // the run moved.
  uint64_t replaced_nodes = 0;
  for (const uint64_t j : walk_indices) {
    replaced_nodes += from.offsets[j + 1] - from.offsets[j];
  }
  set->nodes_.reserve(from.nodes.size() - replaced_nodes +
                      replacements.nodes.size());
  set->offsets_.reserve(walks + 1);
  uint64_t kept_begin = 0;
  auto copy_kept = [&](uint64_t end) {  // kept walks [kept_begin, end)
    const uint64_t first = from.offsets[kept_begin];
    AppendShifted(from.offsets.subspan(kept_begin + 1, end - kept_begin),
                  set->nodes_.size() - first, &set->offsets_);
    set->nodes_.insert(set->nodes_.end(), from.nodes.begin() + first,
                       from.nodes.begin() + from.offsets[end]);
  };
  uint64_t next = 0;  // the next replacement's first node
  for (size_t i = 0; i < walk_indices.size(); ++i) {
    const uint64_t j = walk_indices[i];
    assert(j >= kept_begin && j < walks);
    assert(replacements.nodes[next] == from.starts[j]);
    copy_kept(j);
    const uint32_t len = replacements.lengths[i];
    set->nodes_.insert(set->nodes_.end(), replacements.nodes.begin() + next,
                       replacements.nodes.begin() + next + len);
    set->offsets_.push_back(set->nodes_.size());
    next += len;
    kept_begin = j + 1;
  }
  copy_kept(walks);
  set->starts_.assign(from.starts.begin(), from.starts.end());
  set->lambda_.assign(from.lambda.begin(), from.lambda.end());
  set->start_weight_.assign(from.start_weight.begin(),
                            from.start_weight.end());

  // Index edits. A replaced walk's base postings leave; a node is changed
  // when a replaced walk or a replacement visits it.
  std::vector<uint8_t> replaced(walks, 0);
  std::vector<uint8_t> changed(n, 0);
  for (const uint64_t j : walk_indices) {
    replaced[j] = 1;
    for (uint64_t i = from.offsets[j]; i < from.offsets[j + 1]; ++i) {
      changed[from.nodes[i]] = 1;
    }
  }
  // The replacements' first-occurrence postings, bucketed by node with a
  // counting sort. They arrive in ascending walk order, so every bucket is
  // walk-ascending.
  struct Arrival {
    graph::NodeId node;
    Posting posting;
  };
  std::vector<Arrival> arrivals;
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  std::vector<uint32_t> last_seen(n, kNone);
  next = 0;
  for (size_t i = 0; i < walk_indices.size(); ++i) {
    const auto walk = static_cast<uint32_t>(walk_indices[i]);
    for (uint32_t pos = 0; pos < replacements.lengths[i]; ++pos) {
      const graph::NodeId v = replacements.nodes[next + pos];
      if (last_seen[v] == walk) continue;
      last_seen[v] = walk;
      changed[v] = 1;
      arrivals.push_back({v, {walk, pos}});
    }
    next += replacements.lengths[i];
  }
  std::vector<uint64_t> added_offsets(n + size_t{1}, 0);
  for (const Arrival& e : arrivals) ++added_offsets[e.node + 1];
  for (uint32_t v = 0; v < n; ++v) added_offsets[v + 1] += added_offsets[v];
  std::vector<Posting> added(arrivals.size());
  std::vector<uint64_t> cursor(added_offsets.begin(), added_offsets.end() - 1);
  for (const Arrival& e : arrivals) added[cursor[e.node]++] = e.posting;

  // Patch: untouched node ranges copy their postings and shifted offsets;
  // a changed node merges its surviving base postings with its added ones
  // by walk. A surviving posting's walk is never a replaced one, so the
  // two never tie.
  const std::span<const uint64_t> old_offsets = from.index_offsets;
  std::vector<Posting>& entries = set->index_entries_;
  entries.reserve(from.index_entries.size() + added.size());
  set->index_offsets_.reserve(n + size_t{1});
  set->index_offsets_.push_back(0);
  graph::NodeId untouched_begin = 0;
  auto copy_untouched = [&](graph::NodeId end) {  // [untouched_begin, end)
    const uint64_t first = old_offsets[untouched_begin];
    AppendShifted(old_offsets.subspan(untouched_begin + 1,
                                      end - untouched_begin),
                  entries.size() - first, &set->index_offsets_);
    entries.insert(entries.end(), from.index_entries.begin() + first,
                   from.index_entries.begin() + old_offsets[end]);
  };
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!changed[v]) continue;
    copy_untouched(v);
    auto next_added = added.begin() + added_offsets[v];
    const auto added_end = added.begin() + added_offsets[v + 1];
    for (const Posting& p : base.PostingsOf(v)) {
      if (replaced[p.walk]) continue;
      for (; next_added != added_end && next_added->walk < p.walk;
           ++next_added) {
        entries.push_back(*next_added);
      }
      entries.push_back(p);
    }
    entries.insert(entries.end(), next_added, added_end);
    set->index_offsets_.push_back(entries.size());
    untouched_begin = v + 1;
  }
  copy_untouched(n);

  set->FreezeOwned();
  set->finalized_ = true;
  return set;
}

void WalkSet::AddWalk(const std::vector<graph::NodeId>& walk_nodes) {
  assert(!finalized_);
  assert(!walk_nodes.empty());
  nodes_.insert(nodes_.end(), walk_nodes.begin(), walk_nodes.end());
  offsets_.push_back(nodes_.size());
  starts_.push_back(walk_nodes.front());
  ++lambda_[walk_nodes.front()];
}

void WalkSet::AddWalks(const WalkBuffer& buffer) {
  assert(!finalized_);
  nodes_.insert(nodes_.end(), buffer.nodes.begin(), buffer.nodes.end());
  uint64_t pos = offsets_.back();
  for (const uint32_t len : buffer.lengths) {
    assert(len >= 1);
    const graph::NodeId start = nodes_[pos];
    pos += len;
    offsets_.push_back(pos);
    starts_.push_back(start);
    ++lambda_[start];
  }
  assert(pos == nodes_.size());
}

void WalkSet::FreezeOwned() {
  frozen_.nodes = nodes_;
  frozen_.offsets = offsets_;
  frozen_.starts = starts_;
  frozen_.lambda = lambda_;
  frozen_.start_weight = start_weight_;
  frozen_.index_offsets = index_offsets_;
  frozen_.index_entries = index_entries_;
}

void WalkSet::BuildIndex() {
  // Inverted index with first-occurrence dedup per walk: counting pass,
  // then fill. `last_seen[v]` stamps the walk that last recorded v.
  const size_t walks = starts_.size();
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  std::vector<uint32_t> last_seen(num_nodes_, kNone);
  std::vector<uint64_t> counts(num_nodes_ + 1, 0);
  for (uint32_t w = 0; w < walks; ++w) {
    for (uint64_t i = offsets_[w]; i < offsets_[w + 1]; ++i) {
      const graph::NodeId v = nodes_[i];
      if (last_seen[v] == w) continue;
      last_seen[v] = w;
      ++counts[v + 1];
    }
  }
  index_offsets_.assign(num_nodes_ + 1, 0);
  for (uint32_t v = 0; v < num_nodes_; ++v) {
    index_offsets_[v + 1] = index_offsets_[v] + counts[v + 1];
  }
  index_entries_.resize(index_offsets_[num_nodes_]);
  std::vector<uint64_t> cursor(index_offsets_.begin(),
                               index_offsets_.end() - 1);
  std::fill(last_seen.begin(), last_seen.end(), kNone);
  for (uint32_t w = 0; w < walks; ++w) {
    for (uint64_t i = offsets_[w]; i < offsets_[w + 1]; ++i) {
      const graph::NodeId v = nodes_[i];
      if (last_seen[v] == w) continue;
      last_seen[v] = w;
      index_entries_[cursor[v]++] = {
          w, static_cast<uint32_t>(i - offsets_[w])};
    }
  }
}

void WalkSet::Finalize(const std::vector<double>& initial_opinions) {
  assert(!finalized_);
  BuildIndex();
  FreezeOwned();
  finalized_ = true;
  ResetValues(initial_opinions);
}

void WalkSet::ResetValues(const std::vector<double>& initial_opinions) {
  assert(finalized_);
  assert(initial_opinions.size() == num_nodes_);
  const size_t walks = frozen_.starts.size();
  values_.resize(walks);
  eff_len_.resize(walks);
  est_sum_.assign(num_nodes_, 0.0);
  cuts_.clear();
  for (size_t w = 0; w < walks; ++w) {
    const uint64_t begin = frozen_.offsets[w];
    const uint64_t end = frozen_.offsets[w + 1];
    eff_len_[w] = static_cast<uint32_t>(end - begin);
    values_[w] = initial_opinions[frozen_.nodes[end - 1]];
    est_sum_[frozen_.starts[w]] += values_[w];
  }
}

void WalkSet::SetStartWeight(graph::NodeId v, double weight) {
  assert(!adopted_ && "persisted sketches carry immutable start weights");
  // Defensive no-op in release builds: the adopted frozen data (possibly an
  // mmap) is immutable and the owned vector was released by AdoptFrozen.
  if (adopted_) return;
  start_weight_[v] = weight;
}

size_t WalkSet::memory_bytes() const {
  const Frozen& f = frozen_;
  return f.nodes.size_bytes() + f.offsets.size_bytes() +
         f.starts.size_bytes() + f.lambda.size_bytes() +
         f.start_weight.size_bytes() + f.index_offsets.size_bytes() +
         f.index_entries.size_bytes() + eff_len_.size() * sizeof(uint32_t) +
         values_.size() * sizeof(double) + est_sum_.size() * sizeof(double) +
         cuts_.size() * sizeof(Cut);
}

void WalkSet::Truncate(
    graph::NodeId w, const std::function<void(uint32_t, double)>& on_change) {
  assert(finalized_);
  for (const Posting& posting : PostingsOf(w)) {
    const uint32_t walk = posting.walk;
    const uint32_t eff_len = eff_len_[walk];
    if (posting.pos >= eff_len) continue;  // already cut
    const double old_value = values_[walk];
    const graph::NodeId start = frozen_.starts[walk];
    cuts_.push_back({walk, eff_len, old_value, est_sum_[start]});
    eff_len_[walk] = posting.pos + 1;
    if (old_value < 1.0) {
      values_[walk] = 1.0;
      est_sum_[start] += 1.0 - old_value;
      on_change(walk, old_value);
    }
  }
}

void WalkSet::UndoTruncations() {
  // Backwards: a walk or start cut twice gets its oldest saved bytes last.
  for (auto cut = cuts_.rbegin(); cut != cuts_.rend(); ++cut) {
    eff_len_[cut->walk] = cut->eff_len;
    values_[cut->walk] = cut->value;
    est_sum_[frozen_.starts[cut->walk]] = cut->est_sum;
  }
  cuts_.clear();
}

}  // namespace voteopt::core
