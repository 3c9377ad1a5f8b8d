#include "influence/rr_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/failpoint.h"
#include "common/task_scheduler.h"

namespace cod {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

void RrSlabPool::Append(const RrGraph& g) {
  Extent e;
  e.source = g.source;
  e.node_begin = static_cast<uint32_t>(nodes_.size());
  e.node_count = static_cast<uint32_t>(g.nodes.size());
  e.edge_begin = static_cast<uint32_t>(neighbors_.size());
  e.off_begin = static_cast<uint32_t>(offsets_.size());
  NoteGrowth(nodes_, nodes_.size() + g.nodes.size());
  NoteGrowth(offsets_, offsets_.size() + g.offsets.size());
  NoteGrowth(neighbors_, neighbors_.size() + g.neighbors.size());
  NoteGrowth(extents_, extents_.size() + 1);
  nodes_.insert(nodes_.end(), g.nodes.begin(), g.nodes.end());
  offsets_.insert(offsets_.end(), g.offsets.begin(), g.offsets.end());
  neighbors_.insert(neighbors_.end(), g.neighbors.begin(), g.neighbors.end());
  extents_.push_back(e);
}

void RrSlabPool::Append(const View& v) {
  const size_t edge_count = v.offsets[v.node_count];
  Extent e;
  e.source = v.source;
  e.node_begin = static_cast<uint32_t>(nodes_.size());
  e.node_count = v.node_count;
  e.edge_begin = static_cast<uint32_t>(neighbors_.size());
  e.off_begin = static_cast<uint32_t>(offsets_.size());
  NoteGrowth(nodes_, nodes_.size() + v.node_count);
  NoteGrowth(offsets_, offsets_.size() + v.node_count + 1);
  NoteGrowth(neighbors_, neighbors_.size() + edge_count);
  NoteGrowth(extents_, extents_.size() + 1);
  nodes_.insert(nodes_.end(), v.nodes, v.nodes + v.node_count);
  offsets_.insert(offsets_.end(), v.offsets, v.offsets + v.node_count + 1);
  neighbors_.insert(neighbors_.end(), v.neighbors, v.neighbors + edge_count);
  extents_.push_back(e);
}

void RrSlabPool::AppendPool(const RrSlabPool& other) {
  const size_t node_base = nodes_.size();
  const size_t edge_base = neighbors_.size();
  const size_t off_base = offsets_.size();
  NoteGrowth(nodes_, node_base + other.nodes_.size());
  NoteGrowth(offsets_, off_base + other.offsets_.size());
  NoteGrowth(neighbors_, edge_base + other.neighbors_.size());
  NoteGrowth(extents_, extents_.size() + other.extents_.size());
  nodes_.insert(nodes_.end(), other.nodes_.begin(), other.nodes_.end());
  offsets_.insert(offsets_.end(), other.offsets_.begin(),
                  other.offsets_.end());
  neighbors_.insert(neighbors_.end(), other.neighbors_.begin(),
                    other.neighbors_.end());
  for (const Extent& e : other.extents_) {
    extents_.push_back(Extent{
        e.source, static_cast<uint32_t>(e.node_begin + node_base),
        e.node_count, static_cast<uint32_t>(e.edge_begin + edge_base),
        static_cast<uint32_t>(e.off_begin + off_base)});
  }
}

void RrSlabPool::AppendPools(std::span<const RrSlabPool* const> parts) {
  size_t nodes = nodes_.size();
  size_t offsets = offsets_.size();
  size_t neighbors = neighbors_.size();
  size_t extents = extents_.size();
  for (const RrSlabPool* part : parts) {
    nodes += part->nodes_.size();
    offsets += part->offsets_.size();
    neighbors += part->neighbors_.size();
    extents += part->extents_.size();
  }
  NoteGrowth(nodes_, nodes);
  NoteGrowth(offsets_, offsets);
  NoteGrowth(neighbors_, neighbors);
  NoteGrowth(extents_, extents);
  nodes_.reserve(nodes);
  offsets_.reserve(offsets);
  neighbors_.reserve(neighbors);
  extents_.reserve(extents);
  for (const RrSlabPool* part : parts) AppendPool(*part);
}

void RrSlabPool::AppendRange(const RrSlabPool& other, size_t begin,
                             size_t end) {
  if (begin >= end) return;
  const Extent& first = other.extents_[begin];
  const bool to_back = end == other.extents_.size();
  const size_t node_end =
      to_back ? other.nodes_.size() : other.extents_[end].node_begin;
  const size_t edge_end =
      to_back ? other.neighbors_.size() : other.extents_[end].edge_begin;
  const size_t off_end =
      to_back ? other.offsets_.size() : other.extents_[end].off_begin;
  const size_t node_base = nodes_.size();
  const size_t edge_base = neighbors_.size();
  const size_t off_base = offsets_.size();
  NoteGrowth(nodes_, node_base + (node_end - first.node_begin));
  NoteGrowth(offsets_, off_base + (off_end - first.off_begin));
  NoteGrowth(neighbors_, edge_base + (edge_end - first.edge_begin));
  NoteGrowth(extents_, extents_.size() + (end - begin));
  nodes_.insert(nodes_.end(), other.nodes_.begin() + first.node_begin,
                other.nodes_.begin() + node_end);
  offsets_.insert(offsets_.end(), other.offsets_.begin() + first.off_begin,
                  other.offsets_.begin() + off_end);
  neighbors_.insert(neighbors_.end(),
                    other.neighbors_.begin() + first.edge_begin,
                    other.neighbors_.begin() + edge_end);
  for (size_t i = begin; i < end; ++i) {
    const Extent& e = other.extents_[i];
    extents_.push_back(Extent{
        e.source,
        static_cast<uint32_t>(e.node_begin - first.node_begin + node_base),
        e.node_count,
        static_cast<uint32_t>(e.edge_begin - first.edge_begin + edge_base),
        static_cast<uint32_t>(e.off_begin - first.off_begin + off_base)});
  }
}

ParallelRrPool::ParallelRrPool(const DiffusionModel& model,
                               std::span<const NodeId> node_keys)
    : model_(&model), node_keys_(node_keys) {}

void ParallelRrPool::Rebind(const DiffusionModel& model,
                            std::span<const NodeId> node_keys) {
  model_ = &model;
  node_keys_ = node_keys;
  for (auto& chunk : chunks_) chunk->sampler.Rebind(model);
}

ParallelRrPool::ChunkScratch& ParallelRrPool::Chunk(size_t i) {
  while (chunks_.size() <= i) {
    chunks_.push_back(std::make_unique<ChunkScratch>(*model_));
  }
  return *chunks_[i];
}

uint64_t ParallelRrPool::chunk_growth_events() const {
  uint64_t total = 0;
  for (const auto& chunk : chunks_) total += chunk->slab.growth_events();
  return total;
}

StatusCode ParallelRrPool::BuildSerial(std::span<const NodeId> sources,
                                       uint32_t theta,
                                       const std::vector<char>& allowed,
                                       uint64_t pool_seed, const Budget& budget,
                                       RrSlabPool* out, BuildStats* stats) {
  ChunkScratch& cs = Chunk(0);
  const auto start = std::chrono::steady_clock::now();
  const size_t total = sources.size() * theta;
  for (size_t s = 0; s < total; ++s) {
    // Check between samples only — the clean points where aborting leaves
    // no dirty scratch. The "rr/sample" failpoint injects a mid-evaluation
    // abort at the same point (tests of partial-work unwinding).
    const StatusCode code = COD_FAILPOINT("rr/sample")
                                ? StatusCode::kCancelled
                                : budget.ExhaustedCode();
    if (code != StatusCode::kOk) {
      stats->sample_seconds = SecondsSince(start);
      out->Clear();
      return code;
    }
    const NodeId source = sources[s / theta];
    Rng rng(RrSampleSeed(
        pool_seed, uint64_t{NodeKey(node_keys_, source)} * theta + s % theta));
    cs.sampler.SampleRestricted(source, allowed, rng, &cs.rr);
    out->Append(cs.rr);
    ++stats->samples;
    stats->explored_nodes += cs.rr.NumNodes();
  }
  stats->sample_seconds = SecondsSince(start);
  return StatusCode::kOk;
}

StatusCode ParallelRrPool::Build(std::span<const NodeId> sources,
                                 uint32_t theta,
                                 const std::vector<char>& allowed,
                                 uint64_t pool_seed, const Budget& budget,
                                 TaskScheduler* scheduler, RrSlabPool* out,
                                 BuildStats* stats) {
  out->Clear();
  *stats = BuildStats{};
  const size_t total = sources.size() * theta;
  if (scheduler == nullptr || scheduler->num_threads() <= 1 || total < 2) {
    return BuildSerial(sources, theta, allowed, pool_seed, budget, out, stats);
  }

  const auto start = std::chrono::steady_clock::now();
  const size_t num_chunks = std::min(scheduler->num_threads(), total);
  for (size_t c = 0; c < num_chunks; ++c) Chunk(c);

  // First failing status code wins; workers stop drawing once any chunk
  // aborts. Chunks are interactive tasks in a private group; waiting from a
  // scheduler worker (the batch-chunk case) runs them inline, so sampling on
  // the very scheduler that carries the batch cannot deadlock.
  std::atomic<uint32_t> abort_code{0};
  TaskGroup group(*scheduler);

  for (size_t c = 0; c < num_chunks; ++c) {
    scheduler->Submit(TaskPriority::kInteractive, group, [&, c] {
      ChunkScratch& cs = *chunks_[c];
      cs.slab.Clear();
      cs.samples = 0;
      cs.explored_nodes = 0;
      const size_t begin = total * c / num_chunks;
      const size_t end = total * (c + 1) / num_chunks;
      for (size_t s = begin; s < end; ++s) {
        if (abort_code.load(std::memory_order_relaxed) != 0) break;
        const StatusCode code = COD_FAILPOINT("influence/parallel_pool")
                                    ? StatusCode::kCancelled
                                    : budget.ExhaustedCode();
        if (code != StatusCode::kOk) {
          uint32_t expected = 0;
          abort_code.compare_exchange_strong(
              expected, static_cast<uint32_t>(code),
              std::memory_order_relaxed);
          break;
        }
        const NodeId source = sources[s / theta];
        Rng rng(RrSampleSeed(pool_seed,
                             uint64_t{NodeKey(node_keys_, source)} * theta +
                                 s % theta));
        cs.sampler.SampleRestricted(source, allowed, rng, &cs.rr);
        cs.slab.Append(cs.rr);
        ++cs.samples;
        cs.explored_nodes += cs.rr.NumNodes();
      }
    });
  }
  group.Wait();

  stats->chunks = num_chunks;
  for (size_t c = 0; c < num_chunks; ++c) {
    stats->samples += chunks_[c]->samples;
    stats->explored_nodes += chunks_[c]->explored_nodes;
  }
  stats->sample_seconds = SecondsSince(start);

  const auto code =
      static_cast<StatusCode>(abort_code.load(std::memory_order_relaxed));
  if (code != StatusCode::kOk) {
    out->Clear();
    return code;
  }

  // Deterministic merge: chunks cover contiguous, increasing sample-index
  // ranges, so appending them in chunk order reproduces the serial layout
  // exactly.
  const auto merge_start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < num_chunks; ++c) out->AppendPool(chunks_[c]->slab);
  stats->merge_seconds = SecondsSince(merge_start);
  return StatusCode::kOk;
}

}  // namespace cod
