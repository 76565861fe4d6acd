// Bound-sorted *lazy* generation of the Fig. 5 scaling sequence for
// the explorer (core/dse.cpp): instead of materializing all
// C(C+L-1, L-1) combinations up front, slots are popped one at a time
// from a priority queue keyed by the ScalingBoundsModel power lower
// bound, expanding successors over the Fig. 5 neighbor structure
// (decrement one level) with a visited bitmap for dedup. At 10^4+ slot
// spaces this keeps memory proportional to the expansion frontier and
// lets the explorer dispose of dominated slots before their searches
// are ever submitted.
//
// Bounds once per slot. A gate-passing combination's case staircase
// (ScalingBoundsModel::case_bounds_for) is computed once, when the
// combination is generated, and travels with it: its first power is
// the pop key, and pop() hands the whole staircase to the explorer in
// Slot::cases for the per-case prune test. The staircase is exactly
// as strong as the full case list for both uses (see
// core/scaling_bounds.h) and a handful of pairs long, so holding one
// per frontier node keeps memory proportional to the frontier: at the
// acceptance scenario's peak of 1,223 frontier gate passers the
// staircases take ~90 KB where the full lists would take ~1.65 MB.
//
// Ordering contract. pop() returns every combination exactly once, in
// ascending (corner power lower bound, enumeration rank) order *over
// the generated frontier* — a pure function of the problem, identical
// on every run. Without a bounds model every key is zero and the tie
// rank makes pops exactly the Fig. 5 enumeration order: each
// combination below the all-slowest root has a neighbor parent with a
// smaller rank (incrementing the leftmost occurrence of any
// non-maximal level value), so by induction the minimum-rank unpopped
// combination is always already generated. With bounds the keys are
// not monotone along successor edges (speeding one core up can lower
// the corner — capacity admits cheaper powered-core cases), so the pop
// order is a deterministic *approximation* of the global bound order,
// which is all the explorer's sequential replay needs.
//
// The T_M feasibility gate is evaluated here from the graph's
// TmBoundAggregates, built once (the formula tm_lower_bound_seconds
// evaluates, so gate decisions are bit-identical to the materialized
// sweep) — gate-failed slots still pop (the explorer records them as
// skipped) and still expand, but skip the bound computation entirely.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "core/scaling_bounds.h"
#include "sched/list_scheduler.h"
#include "taskgraph/task_graph.h"
#include "util/float_compare.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

namespace seamap {

/// Priority-queue generator of the Fig. 5 sequence (see file comment).
class LazyScalingQueue {
public:
    /// One generated scaling combination.
    struct Slot {
        /// Position in the Fig. 5 enumeration order (what the
        /// materialized sweep would have called its index).
        std::uint64_t rank = 0;
        ScalingVector levels;
        /// T_M lower-bound gate verdict (false = provably misses the
        /// deadline; the explorer records it as skipped_infeasible).
        bool gate_passed = false;
        /// The case staircase ScalingBoundsModel::case_bounds_for
        /// returns for `levels`; empty when no bounds model was
        /// supplied or the gate failed.
        std::vector<ScalingBounds> cases;
    };

    /// `arch` and `bounds` must outlive the queue; `bounds` may be null
    /// (no keys — pops follow the exact enumeration order).
    /// `successor_shuffle_seed` perturbs the order successors are
    /// *pushed* (never the pop order, which the dedup + strict
    /// (key, rank) total order make push-order invariant); nonzero
    /// values exist for the dedup tests only. Throws seamap::Error
    /// (invalid_argument) when the space's rank table and visited
    /// bitmap would pass 1 GiB.
    LazyScalingQueue(const TaskGraph& graph, const MpsocArchitecture& arch,
                     double deadline_seconds, const ScalingBoundsModel* bounds,
                     std::uint64_t successor_shuffle_seed = 0);

    /// Next slot in (corner power bound, rank) order, or nullopt once
    /// every combination has been returned.
    std::optional<Slot> pop();

    /// Size of the full Fig. 5 sequence: C(C+L-1, L-1).
    std::uint64_t total() const { return total_; }
    /// Combinations returned by pop() so far.
    std::uint64_t popped() const { return popped_; }
    /// Combinations pushed into the frontier so far (>= popped).
    std::uint64_t generated() const { return generated_; }

    /// Enumeration rank of `levels` (its index in the Fig. 5 order):
    /// counts the non-increasing tuples that sort descending-lex
    /// before it. Throws seamap::Error past 2^64 combinations, like
    /// the queue itself. Exposed for tests; the queue uses a
    /// precomputed table-driven equivalent.
    static std::uint64_t rank_of(const ScalingVector& levels, std::size_t level_count);

    /// The Fig. 5 neighbor structure the expansion walks: every cover
    /// of `levels` in the componentwise order, i.e. the result of
    /// decrementing the rightmost occurrence of each distinct level
    /// value > 1 (each stays non-increasing; together they generate
    /// the whole sequence from the all-slowest root). Appended to
    /// `out` in ascending position order.
    static void successors(const ScalingVector& levels, std::vector<ScalingVector>& out);

private:
    struct Node {
        double sort_key = 0.0; ///< the corner power: cases' first, or 0
        Slot slot;
    };
    struct NodeAfter {
        bool operator()(const Node& a, const Node& b) const {
            if (!exactly_equal(a.sort_key, b.sort_key)) return a.sort_key > b.sort_key;
            return a.slot.rank > b.slot.rank;
        }
    };

    std::uint64_t rank_of_tabled(const ScalingVector& levels) const;
    void generate(ScalingVector levels);
    bool visit(std::uint64_t rank);

    const MpsocArchitecture& arch_;
    double deadline_seconds_;
    const ScalingBoundsModel* bounds_;
    std::uint64_t shuffle_seed_;

    TmBoundAggregates tm_; ///< the per-combination T_M gate's graph side

    // Multiset-count table: counts_[m * (L + 1) + w] = number of
    // non-increasing tuples of length m over values [1..w], the
    // descending-lex rank increments.
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t popped_ = 0;
    std::uint64_t generated_ = 0;
    std::vector<std::uint64_t> visited_; ///< bitmap over ranks
    std::priority_queue<Node, std::vector<Node>, NodeAfter> frontier_;
    std::vector<ScalingVector> successor_scratch_;
};

} // namespace seamap
