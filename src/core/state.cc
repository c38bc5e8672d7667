#include "src/core/state.h"

#include <cassert>
#include <cstring>

#include "src/common/serializer.h"

namespace bft {

ReplicaState::ReplicaState(const ReplicaConfig* config, const PerfModel* model)
    : config_(config), model_(model) {
  num_pages_ = config->state_pages;
  data_.assign(num_pages_ * config->page_size, 0);

  // Leaf level: smallest L with branching^L >= num_pages.
  uint32_t level = 0;
  uint64_t cover = 1;
  while (cover < num_pages_) {
    cover *= config->partition_branching;
    ++level;
  }
  leaf_level_ = level;

  leaves_.resize(num_pages_);
  interior_.resize(leaf_level_);
  for (uint32_t l = 0; l < leaf_level_; ++l) {
    interior_[l].resize(PartsAtLevel(l));
  }
}

uint64_t ReplicaState::PartsAtLevel(uint32_t level) const {
  if (level >= leaf_level_) {
    return num_pages_;
  }
  // Number of children groups needed to cover num_pages at this level.
  uint64_t span = 1;
  for (uint32_t l = level; l < leaf_level_; ++l) {
    span *= config_->partition_branching;
  }
  return (num_pages_ + span - 1) / span;
}

void ReplicaState::Read(size_t offset, size_t len, uint8_t* out) const {
  assert(offset + len <= data_.size());
  std::memcpy(out, data_.data() + offset, len);
}

void ReplicaState::Modify(size_t offset, size_t len) {
  assert(offset + len <= data_.size());
  if (len == 0) {
    return;
  }
  uint64_t first = offset / config_->page_size;
  uint64_t last = (offset + len - 1) / config_->page_size;
  for (uint64_t p = first; p <= last; ++p) {
    dirty_pages_.insert(p);
  }
}

void ReplicaState::Write(size_t offset, ByteView bytes) {
  Modify(offset, bytes.size());
  std::memcpy(data_.data() + offset, bytes.data(), bytes.size());
}

uint8_t* ReplicaState::MutableRange(size_t offset, size_t len) {
  Modify(offset, len);
  return data_.data() + offset;
}

Digest ReplicaState::PageDigest(uint64_t index, SeqNo lm, ByteView value) {
  Writer w;
  w.U64(index);
  w.U64(lm);
  return ComputeDigestParts({ByteView(w.data()), value});
}

Digest ReplicaState::InteriorDigest(uint32_t level, uint64_t index, SeqNo lm,
                                    const AdHash& sum) const {
  Writer w;
  w.U32(level);
  w.U64(index);
  w.U64(lm);
  WriteDigest(w, sum.Value());
  return ComputeDigest(w.data());
}

void ReplicaState::UpdateTree(SeqNo seq, const std::set<uint64_t>& pages, Checkpoint* record,
                              CpuMeter* cpu) {
  // Collect, per interior level, the set of indices whose digest must be refreshed.
  std::set<uint64_t> touched;
  for (uint64_t page : pages) {
    LiveNode& leaf = leaves_[page];
    Digest old_d = leaf.d;
    leaf.lm = seq;
    leaf.d = PageDigest(page, seq,
                        ByteView(data_.data() + page * config_->page_size, config_->page_size));
    if (cpu != nullptr) {
      cpu->Charge(model_->DigestCost(config_->page_size));
    }
    if (record != nullptr) {
      PageEntry entry;
      entry.lm = seq;
      entry.d = leaf.d;
      entry.value.assign(data_.begin() + static_cast<long>(page * config_->page_size),
                         data_.begin() + static_cast<long>((page + 1) * config_->page_size));
      record->pages[page] = std::move(entry);
    }
    if (leaf_level_ > 0) {
      uint64_t parent = page / config_->partition_branching;
      interior_[leaf_level_ - 1][parent].sum.Replace(old_d, leaf.d);
      touched.insert(parent);
    }
  }

  // Propagate up the interior levels.
  for (int l = static_cast<int>(leaf_level_) - 1; l >= 0; --l) {
    std::set<uint64_t> next_touched;
    for (uint64_t idx : touched) {
      LiveNode& node = interior_[static_cast<size_t>(l)][idx];
      Digest old_d = node.d;
      node.lm = seq;
      node.d = InteriorDigest(static_cast<uint32_t>(l), idx, seq, node.sum);
      if (cpu != nullptr) {
        cpu->Charge(model_->DigestCost(64));  // small fixed-size interior node hash
      }
      if (record != nullptr) {
        record->nodes[{static_cast<uint32_t>(l), idx}] = NodeEntry{seq, node.d};
      }
      if (l > 0) {
        uint64_t parent = idx / config_->partition_branching;
        interior_[static_cast<size_t>(l) - 1][parent].sum.Replace(old_d, node.d);
        next_touched.insert(parent);
      }
    }
    touched = std::move(next_touched);
  }
}

void ReplicaState::Baseline(const Bytes& extra) {
  // Digest every page and interior node, then record a full snapshot as checkpoint 0.
  std::set<uint64_t> all;
  for (uint64_t p = 0; p < num_pages_; ++p) {
    all.insert(p);
  }
  Checkpoint record;
  record.seq = 0;
  record.extra = extra;
  UpdateTree(0, all, &record, nullptr);
  record.full_digest = ComputeFullDigest(CurrentRootDigest(), extra);
  checkpoints_.clear();
  checkpoints_[0] = std::move(record);
  dirty_pages_.clear();
}

Digest ReplicaState::CurrentRootDigest() const {
  if (leaf_level_ == 0) {
    // Degenerate single-page state: the root is the page itself.
    return leaves_[0].d;
  }
  return interior_[0][0].d;
}

Digest ReplicaState::ComputeFullDigest(const Digest& root, const Bytes& extra) const {
  Writer w;
  WriteDigest(w, root);
  w.Var(extra);
  return ComputeDigest(w.data());
}

Digest ReplicaState::TakeCheckpoint(SeqNo seq, const Bytes& extra, CpuMeter* cpu) {
  Checkpoint record;
  record.seq = seq;
  record.extra = extra;
  UpdateTree(seq, dirty_pages_, &record, cpu);
  dirty_pages_.clear();
  record.full_digest = ComputeFullDigest(CurrentRootDigest(), extra);
  Digest d = record.full_digest;
  checkpoints_[seq] = std::move(record);
  return d;
}

Digest ReplicaState::CheckpointDigest(SeqNo seq) const {
  auto it = checkpoints_.find(seq);
  return it == checkpoints_.end() ? Digest{} : it->second.full_digest;
}

Bytes ReplicaState::CheckpointExtra(SeqNo seq) const {
  auto it = checkpoints_.find(seq);
  return it == checkpoints_.end() ? Bytes{} : it->second.extra;
}

SeqNo ReplicaState::NewestCheckpoint() const {
  return checkpoints_.empty() ? 0 : checkpoints_.rbegin()->first;
}

SeqNo ReplicaState::OldestCheckpoint() const {
  return checkpoints_.empty() ? 0 : checkpoints_.begin()->first;
}

std::optional<SeqNo> ReplicaState::NewestCheckpointAtOrBelow(SeqNo seq) const {
  auto it = checkpoints_.upper_bound(seq);
  if (it == checkpoints_.begin()) {
    return std::nullopt;
  }
  return std::prev(it)->first;
}

std::vector<std::pair<SeqNo, Digest>> ReplicaState::Checkpoints() const {
  std::vector<std::pair<SeqNo, Digest>> out;
  for (const auto& [seq, record] : checkpoints_) {
    out.emplace_back(seq, record.full_digest);
  }
  return out;
}

void ReplicaState::DiscardCheckpointsBelow(SeqNo keep_from) {
  while (!checkpoints_.empty() && checkpoints_.begin()->first < keep_from) {
    auto oldest = checkpoints_.begin();
    auto next = std::next(oldest);
    if (next == checkpoints_.end()) {
      // Never discard the only checkpoint: it is the full snapshot anchoring lookups.
      return;
    }
    // Merge forward: entries absent from `next` keep their value from `oldest` at `next`.
    // merge() splices those nodes across and leaves keys `next` already has untouched.
    next->second.pages.merge(oldest->second.pages);
    next->second.nodes.merge(oldest->second.nodes);
    checkpoints_.erase(oldest);
  }
}

const ReplicaState::PageEntry* ReplicaState::LookupPage(uint64_t index, SeqNo target) const {
  auto it = checkpoints_.upper_bound(target);
  while (it != checkpoints_.begin()) {
    --it;
    auto pit = it->second.pages.find(index);
    if (pit != it->second.pages.end()) {
      return &pit->second;
    }
  }
  return nullptr;
}

const ReplicaState::NodeEntry* ReplicaState::LookupNode(uint32_t level, uint64_t index,
                                                        SeqNo target) const {
  auto it = checkpoints_.upper_bound(target);
  while (it != checkpoints_.begin()) {
    --it;
    auto nit = it->second.nodes.find({level, index});
    if (nit != it->second.nodes.end()) {
      return &nit->second;
    }
  }
  return nullptr;
}

void ReplicaState::RebuildInterior() {
  for (int l = static_cast<int>(leaf_level_) - 1; l >= 0; --l) {
    uint64_t count = PartsAtLevel(static_cast<uint32_t>(l));
    for (uint64_t idx = 0; idx < count; ++idx) {
      AdHash sum;
      SeqNo lm = 0;
      uint64_t first = idx * config_->partition_branching;
      uint64_t child_count = PartsAtLevel(static_cast<uint32_t>(l) + 1);
      for (uint64_t c = first; c < first + config_->partition_branching && c < child_count;
           ++c) {
        const LiveNode& child = (static_cast<uint32_t>(l) + 1 == leaf_level_)
                                    ? leaves_[c]
                                    : interior_[static_cast<size_t>(l) + 1][c];
        sum.Add(child.d);
        lm = std::max(lm, child.lm);
      }
      LiveNode& node = interior_[static_cast<size_t>(l)][idx];
      node.sum = sum;
      node.lm = lm;
      node.d = InteriorDigest(static_cast<uint32_t>(l), idx, lm, sum);
    }
  }
}

Bytes ReplicaState::RollbackToCheckpoint(SeqNo seq) {
  auto target = checkpoints_.find(seq);
  assert(target != checkpoints_.end());

  // Pages possibly differing from their value at `seq`: dirty pages plus pages snapshotted by
  // later checkpoints.
  std::set<uint64_t> to_restore = dirty_pages_;
  for (auto it = checkpoints_.upper_bound(seq); it != checkpoints_.end(); ++it) {
    for (const auto& [idx, entry] : it->second.pages) {
      to_restore.insert(idx);
    }
  }

  for (uint64_t page : to_restore) {
    const PageEntry* entry = LookupPage(page, seq);
    assert(entry != nullptr);
    std::memcpy(data_.data() + page * config_->page_size, entry->value.data(),
                config_->page_size);
    leaves_[page].lm = entry->lm;
    leaves_[page].d = entry->d;
  }
  // Rollback is rare (tentative-execution aborts during view changes), so a full interior
  // rebuild keeps the logic simple; the incremental path is only needed for checkpoints.
  RebuildInterior();

  dirty_pages_.clear();
  Bytes extra = target->second.extra;
  checkpoints_.erase(checkpoints_.upper_bound(seq), checkpoints_.end());
  return extra;
}

std::vector<MetaDataMsg::Part> ReplicaState::GetMetaData(uint32_t level, uint64_t index,
                                                         SeqNo target) const {
  std::vector<MetaDataMsg::Part> out;
  if (checkpoints_.count(target) == 0 || level >= leaf_level_) {
    return out;
  }
  uint32_t child_level = level + 1;
  uint64_t first = index * config_->partition_branching;
  uint64_t count = PartsAtLevel(child_level);
  for (uint64_t c = first; c < first + config_->partition_branching && c < count; ++c) {
    MetaDataMsg::Part part;
    part.index = c;
    if (child_level == leaf_level_) {
      const PageEntry* e = LookupPage(c, target);
      if (e == nullptr) {
        continue;
      }
      part.lm = e->lm;
      part.d = e->d;
    } else {
      const NodeEntry* e = LookupNode(child_level, c, target);
      if (e == nullptr) {
        continue;
      }
      part.lm = e->lm;
      part.d = e->d;
    }
    out.push_back(part);
  }
  return out;
}

std::optional<std::pair<SeqNo, Digest>> ReplicaState::GetNodeInfo(uint32_t level,
                                                                  uint64_t index,
                                                                  SeqNo target) const {
  if (checkpoints_.count(target) == 0) {
    return std::nullopt;
  }
  if (level >= leaf_level_) {
    const PageEntry* e = LookupPage(index, target);
    if (e == nullptr) {
      return std::nullopt;
    }
    return std::make_pair(e->lm, e->d);
  }
  const NodeEntry* e = LookupNode(level, index, target);
  if (e == nullptr) {
    return std::nullopt;
  }
  return std::make_pair(e->lm, e->d);
}

std::pair<SeqNo, Digest> ReplicaState::LiveNodeInfo(uint32_t level, uint64_t index) const {
  if (level >= leaf_level_) {
    return {leaves_[index].lm, leaves_[index].d};
  }
  return {interior_[level][index].lm, interior_[level][index].d};
}

std::optional<std::pair<SeqNo, Bytes>> ReplicaState::GetPage(uint64_t index,
                                                             SeqNo target) const {
  if (checkpoints_.count(target) == 0 || index >= num_pages_) {
    return std::nullopt;
  }
  const PageEntry* e = LookupPage(index, target);
  if (e == nullptr) {
    return std::nullopt;
  }
  return std::make_pair(e->lm, e->value);
}

void ReplicaState::ApplyFetchedPage(uint64_t index, SeqNo lm, ByteView value) {
  assert(index < num_pages_ && value.size() == config_->page_size);
  std::memcpy(data_.data() + index * config_->page_size, value.data(), value.size());
  leaves_[index].lm = lm;
  leaves_[index].d = PageDigest(index, lm, value);
  dirty_pages_.erase(index);
}

Digest ReplicaState::FinalizeFetchedCheckpoint(SeqNo seq, const Bytes& extra) {
  // Leaf lm/digest values came from the fetched meta-data; interior nodes are rebuilt bottom-up
  // (interior lm = max child lm, matching what the senders computed incrementally).
  RebuildInterior();

  // Reset history: a single full snapshot at `seq`.
  Checkpoint record;
  record.seq = seq;
  record.extra = extra;
  for (uint64_t p = 0; p < num_pages_; ++p) {
    PageEntry e;
    e.lm = leaves_[p].lm;
    e.d = leaves_[p].d;
    e.value.assign(data_.begin() + static_cast<long>(p * config_->page_size),
                   data_.begin() + static_cast<long>((p + 1) * config_->page_size));
    record.pages[p] = std::move(e);
  }
  for (uint32_t l = 0; l < leaf_level_; ++l) {
    for (uint64_t idx = 0; idx < PartsAtLevel(l); ++idx) {
      record.nodes[{l, idx}] = NodeEntry{interior_[l][idx].lm, interior_[l][idx].d};
    }
  }
  record.full_digest = ComputeFullDigest(CurrentRootDigest(), extra);
  Digest d = record.full_digest;
  checkpoints_.clear();
  checkpoints_[seq] = std::move(record);
  dirty_pages_.clear();
  return d;
}

}  // namespace bft
