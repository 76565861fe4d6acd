// Zero-allocation per-candidate evaluation hot path. The Fig. 4 flow
// evaluates thousands of (mapping, scaling) candidates per scaling;
// reliability/design_eval.h scores each from scratch. EvalContext is the
// reusable engine both search strategies run on instead, and a candidate
// costs what it touches:
//
//  - One plan per explore. EvalPlan holds what depends only on the graph
//    and core count: the static placement order (sched/list_scheduler.h)
//    with positions and suffix starts, CSR adjacency, cycle counts,
//    register word rows and the memo's key terms. The explorer builds it
//    once; every worker's context shares it.
//  - One context per worker. rebind() points a context at a slot without
//    allocating: it rebuilds the per-core frequency, SER and power tables
//    and the per-(task, core) and per-(edge, core) times (the same cycles
//    / batches / frequency quotients the scheduler forms), drops the
//    base, resets stats() and bumps the memo's epoch. EvalContext(ctx) is
//    a plan of its own plus rebind(ctx).
//  - Incremental re-evaluation. rebase() is the one full pass; it logs
//    each placement's previous core-free time, so the timeline at any
//    position is the final state with the log undone backwards. Every
//    other evaluation is a NeighborOp candidate (up to two tasks on new
//    cores) that replays only the schedule suffix from the earliest
//    predecessor of a changed task, from the base's prefix latency.
//  - O(touched-cores) tiers. A memo miss stages its busy-cycle delta on
//    the cores it touches (the changed tasks' and their neighbours');
//    untouched cores keep the base's values. The II is the larger of the
//    touched cores' terms and the first untouched one of the base's k
//    busiest cores (a scan of all cores only when all k are touched).
//    The replay's latency only grows, so prefix + (B-1)·II is a lower
//    bound tm_lb on T_M, and eq. 3 summed at tm_lb (full_duration) or at
//    the exact busy seconds (busy_only) bounds Gamma; round-to-nearest is
//    monotone, so both hold in floating point. The Fig. 7 sweep
//    (evaluate_bounded) skips a candidate that provably improves neither
//    reference: by T_M before any register union when tm_lb misses the
//    deadline (stats().tm_skips), else by Gamma after the touched cores'
//    unions when both references are feasible.
//  - Memoization. A direct-mapped cache keyed by the full mapping, sized
//    once per context from k_memo_budget_bytes. A lookup compares the
//    epoch and the full key, so a collision, an overwrite or an earlier
//    slot's entry only costs a miss. The hash XORs one key term per
//    (task, core), so a candidate's costs 2 XORs per changed task.
//
// Determinism contract: the full pass, every suffix replay and every
// memo hit reproduce evaluate_design() BIT-IDENTICALLY (the same
// floating-point operations in the same order; an exact max may run in
// any order). A bound-skipped candidate is counted but neither scheduled
// nor memoized, and could not have changed the search. A rebound context
// behaves exactly like a fresh one, stats() included. naive_reference
// makes the context a thin wrapper over evaluate_design(), so the
// equivalence harness (tests/core/eval_context_equivalence_test.cpp) and
// the benches drive both paths through identical search code; a whole
// exploration wraps its strategy in NaiveEvalStrategy
// (tests/support/naive_eval_strategy.h).
//
// A context is single-threaded state that each explorer worker owns; a
// plan is immutable and shared freely.
#pragma once

#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "taskgraph/task_graph.h"
#include "util/rng.h"

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

namespace seamap {

/// Evaluation-path knobs; the defaults give the fast path.
struct EvalOptions {
    /// Route every evaluation through evaluate_design() (no scratch, no
    /// memo, no incremental): the reference the equivalence tests and
    /// benches compare against.
    bool naive_reference = false;
};

/// One candidate relative to a base mapping: task `a` on core `core_a`
/// and task `b` on core `core_b`, every other task where the base has
/// it (`a` wins when a == b). A move names its task twice (move()), a
/// swap gives each of two tasks the other's base core, and the
/// default-constructed op is none(): the base itself.
struct NeighborOp {
    static constexpr TaskId k_none = std::numeric_limits<TaskId>::max();
    TaskId a = k_none;
    CoreId core_a = 0;
    TaskId b = k_none;
    CoreId core_b = 0;

    static constexpr NeighborOp move(TaskId task, CoreId to) { return {task, to, task, to}; }
    bool none() const { return a == k_none; }
    /// Task `w`'s core in the candidate over the base assignment `base_raw`.
    CoreId core_of(const CoreId* base_raw, TaskId w) const {
        if (w == a) return core_a;
        if (w == b) return core_b;
        return base_raw[w];
    }
};

/// The shared move/swap neighbourhood of both search engines: with
/// probability `swap_probability` exchange two tasks on different
/// cores, otherwise move one task to another core (rejecting moves that
/// would empty a populated core when `require_all_cores`). Mutates
/// `mapping` in place and returns the change as an op relative to the
/// mapping as it was (none() when no mutation was admissible). The RNG
/// draw sequence is the contract: both engines' walks are reproducible
/// bit-for-bit from the seed, so this function consumes draws exactly
/// like the historical per-engine copies it replaces.
NeighborOp random_neighbor_op(Mapping& mapping, Rng& rng, double swap_probability,
                              bool require_all_cores);

/// The graph-only half of every EvalContext over one (graph, core
/// count), shared read-only. Edges are numbered in out-CSR order: task
/// t's out-edges are [out_begin[t], out_begin[t + 1]) in
/// TaskGraph::out_edge_indices(t) order, its in-edges are in_edges[
/// in_begin[t] .. in_begin[t + 1]).
struct EvalPlan {
    /// `graph` must outlive the plan.
    EvalPlan(const TaskGraph& graph, std::size_t cores);

    const TaskGraph* graph;
    std::size_t n;     ///< tasks
    std::size_t cores;
    std::size_t words; ///< register words per row
    std::vector<TaskId> order;             ///< static schedule order
    std::vector<std::size_t> pos;          ///< task -> position in order
    std::vector<std::size_t> suffix_start; ///< task -> earliest affected position
    std::vector<std::size_t> out_begin, in_begin, in_edges;
    std::vector<TaskId> edge_src, edge_dst;
    std::vector<std::uint64_t> exec_cycles; ///< per task
    std::vector<std::uint64_t> comm_cycles; ///< per edge
    std::vector<std::uint64_t> reg_words;   ///< [task * words + w]: register rows
    std::vector<std::uint64_t> reg_bits;    ///< register id -> width in bits
    std::vector<std::uint64_t> key_terms;   ///< [task * cores + core]: memo hash terms
};

/// Reusable per-worker evaluation engine. See file comment.
class EvalContext {
public:
    /// Byte budget of one context's memo (slots plus their keys): the
    /// most power-of-two slots that fit, and at least one.
    static constexpr std::size_t k_memo_budget_bytes = std::size_t{256} << 10;
    /// Length of the base's busiest-core list the T_M tier reads.
    static constexpr std::size_t k_ii_top = 4;

    /// An unbound context over `plan`: rebind() it before anything else.
    explicit EvalContext(std::shared_ptr<const EvalPlan> plan, EvalOptions options = {});
    /// A context over a plan of its own, bound to `ctx`.
    explicit EvalContext(const EvaluationContext& ctx, EvalOptions options = {});

    EvalContext(const EvalContext&) = delete;
    EvalContext& operator=(const EvalContext&) = delete;

    /// Evaluate against `ctx` from now on. `ctx` must be over the plan's
    /// graph and core count (else std::invalid_argument) and outlive its
    /// use; its scaling vector is validated eagerly. Drops the base,
    /// invalidates the memo and resets stats(); allocation-free.
    void rebind(const EvaluationContext& ctx);

    const EvaluationContext& problem() const { return *ctx_; } ///< the bound problem

    /// Establish `base` as the incremental-evaluation anchor (the
    /// search's current mapping) and return its metrics: the only full
    /// pass, bit-identical to evaluate_design(problem(), base). Throws
    /// std::invalid_argument on a size mismatch or an incomplete
    /// mapping, and then leaves the previous base in place.
    DesignMetrics rebase(const Mapping& base);

    /// Metrics of the candidate `op` over the base (the random walk's
    /// step D); an op that changes nothing returns the base's metrics.
    /// Memoized, then suffix-rescheduled; never skipped by the bound.
    /// Requires a prior rebase().
    DesignMetrics evaluate_neighbor(const NeighborOp& op) {
        return *candidate(op, nullptr, nullptr);
    }

    /// evaluate_neighbor() for the Fig. 7 sweep, which keeps a candidate
    /// only if it strictly improves its running best `walk_best` or the
    /// search result `result_best`: against an infeasible reference by
    /// being feasible or having a lower T_M, against a feasible one by
    /// being feasible with a lower Gamma. On a memo miss the bound's
    /// tiers (file comment) may prove it cannot: then it counts a
    /// stats().bound_skips (and a tm_skips when T_M decided), memoizes
    /// nothing and returns std::nullopt. Otherwise returns exactly
    /// evaluate_neighbor(op). The naive_reference path never skips.
    std::optional<DesignMetrics> evaluate_bounded(const NeighborOp& op,
                                                  const DesignMetrics& walk_best,
                                                  const DesignMetrics& result_best) {
        return candidate(op, &walk_best, &result_best);
    }

    /// Instrumentation for benches and tests, since the last rebind().
    struct Stats {
        std::uint64_t full_evals = 0;        ///< complete timing passes (incl. rebase)
        std::uint64_t incremental_evals = 0; ///< suffix-only replays
        std::uint64_t bound_skips = 0;       ///< sweep candidates the bound ruled out
        std::uint64_t tm_skips = 0;          ///< of those, ruled out by T_M before any union
        std::uint64_t memo_hits = 0;
        std::uint64_t memo_entries = 0; ///< filled memo slots
        std::uint64_t memo_bytes = 0;   ///< memo storage, fixed at construction
    };
    const Stats& stats() const { return stats_; }

private:
    DesignMetrics evaluate_full(); ///< of base_, recording its timeline state
    /// evaluate_neighbor(), bounded against the two references when they
    /// are non-null.
    std::optional<DesignMetrics> candidate(const NeighborOp& op,
                                           const DesignMetrics* walk_best,
                                           const DesignMetrics* result_best);
    // The stages of an incremental evaluation; candidate() runs the
    // bound's tiers between them.
    void stage_busy(const NeighborOp& op);   ///< touched cores' busy seconds, staged_ii_
    void stage_unions(const NeighborOp& op); ///< register_bits_ of the candidate
    std::uint64_t core_union_bits(CoreId core, const NeighborOp& op);
    double replay_suffix(const NeighborOp& op, std::size_t suffix_pos); ///< the latency
    template <bool Record>
    double place(const NeighborOp& op, std::size_t from, double latency);
    void reset_touched(); ///< restores the base's busy seconds on the touched cores
    // finish_metrics' arithmetic, shared with the bound so both perform
    // the same floating-point operations.
    DesignMetrics finish_metrics(double latency);
    double pipelined_tm(double latency) const { return latency + (batches_ - 1.0) * staged_ii_; }
    double gamma_at(double tm_seconds) const;
    bool within_deadline(double tm_seconds) const {
        return tm_seconds <= ctx_->deadline_seconds * (1.0 + 1e-9);
    }

    // Memo: a direct-mapped cache over a flat key arena. A key is the
    // base mapping with the op applied; the hash of a mapping is the XOR
    // of plan key_terms over its (task, core) pairs.
    const DesignMetrics* memo_find(std::uint64_t hash, const NeighborOp& op) const;
    void memo_insert(std::uint64_t hash, const NeighborOp& op, const DesignMetrics& metrics);

    std::uint64_t weighted_bits(const std::uint64_t* row) const;

    std::shared_ptr<const EvalPlan> plan_;
    const EvaluationContext* ctx_ = nullptr;
    EvalOptions options_;
    std::size_t n_ = 0, cores_ = 0, words_ = 0; ///< the plan's
    double batches_ = 1.0;

    // Per-slot tables (rebind).
    std::vector<double> core_freq_;
    std::vector<double> ser_rate_; ///< SER per bit-second at each core's Vdd
    std::vector<double> active_power_mw_;
    std::vector<double> exec_seconds_; ///< [task * cores_ + core]: per-batch execution time
    std::vector<double> comm_seconds_; ///< [edge * cores_ + core]: per-batch transfer time

    // Scratch reused by every evaluation (no steady-state allocation).
    std::vector<double> data_ready_;
    std::vector<double> core_free_;
    /// The candidate's busy seconds: the base's on every untouched core.
    std::vector<double> busy_seconds_;
    std::vector<double> utilization_;
    std::vector<std::uint64_t> register_bits_;
    std::vector<std::uint64_t> busy_;       ///< busy cycles, on the touched list
    std::vector<CoreId> touched_;           ///< the first touched_count_ are live
    std::size_t touched_count_ = 0;
    std::vector<std::uint8_t> touched_mark_; ///< 1 on the touched list
    double staged_ii_ = 0.0;                 ///< the evaluation's II
    std::vector<std::uint64_t> scratch_words_; ///< one union row
    Mapping mapping_scratch_; ///< naive_reference candidate materialization

    // Incremental base state (valid while has_base_).
    bool has_base_ = false;
    Mapping base_;
    DesignMetrics base_metrics_;
    /// base_latency_prefix_[p]: the latency of the base schedule's first
    /// p placements (n_ + 1 entries, [0] = 0).
    std::vector<double> base_latency_prefix_;
    std::vector<double> base_arrival_;   ///< per edge: data-arrival instant
    std::vector<double> base_free_log_;  ///< per position: its core's free time before it
    std::vector<double> base_core_free_; ///< per core: free time after the last placement
    std::vector<std::uint64_t> base_busy_;
    std::vector<double> base_busy_seconds_;
    std::array<CoreId, k_ii_top> ii_top_{}; ///< busiest first, by base_busy_seconds_
    std::size_t ii_top_count_ = 0;
    std::vector<std::uint64_t> base_bits_;
    std::uint64_t base_key_ = 0; ///< the memo hash of base_
    // Base task->core partition in CSR form (fixed-capacity arrays):
    // core c's tasks are core_task_ids_[core_task_offsets_[c] ..
    // core_task_offsets_[c + 1]), ascending by task id.
    std::vector<std::size_t> core_task_offsets_; ///< cores_ + 1 entries
    std::vector<TaskId> core_task_ids_;          ///< n_ entries

    // Memo storage: slot i's key is memo_keys_[i * n_ .. (i + 1) * n_).
    // A slot holds an entry of the current binding iff its epoch is
    // memo_epoch_, which rebind() bumps.
    struct MemoSlot {
        std::uint64_t hash = 0;
        std::uint64_t epoch = 0;
        DesignMetrics metrics;
    };
    std::vector<MemoSlot> memo_; ///< power-of-two size
    std::vector<CoreId> memo_keys_;
    std::uint64_t memo_epoch_ = 0;

    Stats stats_;
};

} // namespace seamap
