// Zero-allocation per-candidate evaluation hot path. The Fig. 4 flow
// evaluates thousands of (mapping, scaling) candidates per exploration;
// reliability/design_eval.h scores each one from scratch — a fresh list
// schedule (priority selection + ~10 heap allocations), fresh register
// unions and fresh SEU/power sums per call. EvalContext is the reusable
// per-scaling evaluation engine both search strategies run on instead:
//
//  - Precomputation: the list scheduler's placement sequence is a pure
//    function of the graph (sched/list_scheduler.h,
//    static_schedule_order), so the order, b-level selection, core
//    frequencies, per-core SER rates and active powers are computed
//    once per scaling. So are the per-(task, core) execution times and
//    per-(edge, core) communication times — the same two divisions,
//    cycles / batches / frequency, the schedule would otherwise redo
//    per placement — so per candidate only additions and maxima run.
//  - Scratch reuse: ready lists, per-PE timelines, data-ready arrays,
//    busy/utilization accumulators and register-union bitsets live in
//    the context and are reused across candidates — the steady-state
//    evaluation loop performs no heap allocation.
//  - Incremental re-evaluation: rebase() is the one full pass, and it
//    records the base's per-position timeline state. Every other
//    evaluation is a NeighborOp candidate — up to two tasks on new
//    cores, which covers the sweep's moves and the walks' moves and
//    swaps alike — and replays only the schedule suffix from the first
//    affected placement position (positions before the earliest
//    predecessor of a changed task are provably unchanged), starting
//    the latency from the base's recorded prefix maximum and
//    recomputing only the affected cores' register unions and busy
//    cycles.
//  - Bounded sweep: a candidate that misses the memo is evaluated in
//    tiers, each run only when the ones before it cannot decide:
//    busy-cycle delta, then the T_M tier, then the touched cores'
//    register unions, then the Gamma tier, then the suffix replay. The
//    replay's latency starts from the base's prefix maximum and only
//    grows, so that prefix plus (B-1)·II is a lower bound tm_lb on T_M,
//    and eq. 3 summed at tm_lb (full_duration) or at the exact busy
//    seconds (busy_only) is a lower bound on Gamma; round-to-nearest is
//    monotone, so both hold in floating point. The Fig. 7 sweep
//    (evaluate_bounded) skips a candidate the bound proves can improve
//    neither its running best nor the search result. When tm_lb misses
//    the deadline the decision reads T_M alone and no union is built
//    (stats().tm_skips); the Gamma tier, which needs the unions, runs
//    only when tm_lb meets the deadline and both references are
//    feasible.
//  - Memoization: a direct-mapped cache keyed by the full mapping
//    returns previously computed metrics for revisited candidates, so
//    a random walk that undoes a move never pays for the same design
//    twice. Its power-of-two slot array and flat key arena are sized
//    once, in the constructor, from k_memo_budget_bytes; an insert
//    overwrites its slot and a lookup compares the full key, so a
//    collision or an overwritten slot only costs a miss, never wrong
//    metrics. The hash is Zobrist-style — an XOR of one splitmix64
//    term per (task, core) pair — so rebase() hashes the base once and
//    a candidate's hash is the base hash updated by 2 XORs per task.
//
// Determinism contract: the full pass, every suffix replay and every
// memo hit reproduce evaluate_design() BIT-IDENTICALLY — the same
// floating-point operations in the same order. A bound-skipped sweep
// candidate is counted (stats().bound_skips) but neither scheduled nor
// memoized, and it provably could not have changed the search, so
// searches are identical with or without the bound; the naive_reference
// path never skips. The naive_reference option turns the context into a
// thin wrapper over evaluate_design() — rebase() and every candidate
// call it on the materialized mapping — so the equivalence harness
// (tests/core/eval_context_equivalence_test.cpp) and the before/after
// benches drive both paths through identical search code: a single
// search is handed a naive context, and a whole exploration wraps its
// strategy in NaiveEvalStrategy (tests/support/naive_eval_strategy.h),
// which swaps a naive context in for every slot's search.
//
// An EvalContext is single-threaded state: the explorer builds one per
// scaling combination inside each worker, so contexts are never shared
// across threads.
#pragma once

#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "taskgraph/task_graph.h"
#include "util/rng.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace seamap {

/// Evaluation-path knobs. Defaults give the full fast path; the
/// reference flag pins the optimization to the naive implementation.
struct EvalOptions {
    /// Route every evaluation through evaluate_design() instead of the
    /// optimized path (no scratch reuse, no memo, no incremental).
    /// This is the pre-optimization reference the equivalence tests
    /// and benches compare against.
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
/// draw sequence
/// is the contract: both engines' walks are reproducible bit-for-bit
/// from the seed, so this function consumes draws exactly like the
/// historical per-engine copies it replaces.
NeighborOp random_neighbor_op(Mapping& mapping, Rng& rng, double swap_probability,
                              bool require_all_cores);

/// Reusable per-scaling evaluation engine. See file comment.
class EvalContext {
public:
    /// Byte budget of one context's memo (slots plus their keys): the
    /// constructor allocates the most power-of-two slots that fit, and
    /// at least one.
    static constexpr std::size_t k_memo_budget_bytes = std::size_t{256} << 10;

    /// `ctx` must outlive the EvalContext. Validates the scaling vector
    /// eagerly and precomputes the schedule order.
    explicit EvalContext(const EvaluationContext& ctx, EvalOptions options = {});

    EvalContext(const EvalContext&) = delete;
    EvalContext& operator=(const EvalContext&) = delete;

    /// The problem this context evaluates against.
    const EvaluationContext& problem() const { return ctx_; }

    /// Establish `base` as the incremental-evaluation anchor (the
    /// search's current mapping) and return its metrics: the only full
    /// pass, bit-identical to evaluate_design(problem(), base) and
    /// allocation-free after the first call. Records the per-position
    /// timeline state every candidate restarts from. Throws
    /// std::invalid_argument on a size mismatch or an incomplete
    /// mapping, and then leaves the previous base in place. A known
    /// future optimization is committing the just-replayed suffix of an
    /// accepted neighbour instead, which would help high-acceptance
    /// (hot) walk phases.
    DesignMetrics rebase(const Mapping& base);

    const DesignMetrics& base_metrics() const { return base_metrics_; }

    /// Metrics of the candidate `op` over the base (the base itself is
    /// left untouched): the random walk's step D. An op that changes
    /// nothing returns base_metrics(). Memoized, then suffix-rescheduled:
    /// only the touched cores' register unions and busy cycles are
    /// recomputed, and only placement positions from the earliest
    /// predecessor of a changed task onward are replayed. Never skipped
    /// by the bound. Requires a prior rebase().
    DesignMetrics evaluate_neighbor(const NeighborOp& op);

    /// evaluate_neighbor() for the Fig. 7 sweep, which keeps a candidate
    /// only if it strictly improves its running best `walk_best` or the
    /// search result `result_best`: against an infeasible reference by
    /// being feasible or having a lower T_M, against a feasible one by
    /// being feasible with a lower Gamma. On a memo miss the bound's
    /// tiers (file comment) run in order: the busy-cycle delta, the T_M
    /// tier (skips a candidate whose tm_lb misses the deadline and is
    /// no lower than every infeasible reference's T_M, counting a
    /// stats().tm_skips), the register unions, and, when tm_lb meets
    /// the deadline and both references are feasible, the Gamma tier
    /// (skips when Gamma_lb is no lower than either reference's Gamma).
    /// A skip counts a stats().bound_skips, memoizes nothing and
    /// returns std::nullopt. Otherwise returns exactly
    /// evaluate_neighbor(op). The naive_reference path never skips.
    std::optional<DesignMetrics> evaluate_bounded(const NeighborOp& op,
                                                  const DesignMetrics& walk_best,
                                                  const DesignMetrics& result_best);

    /// Instrumentation for benches and tests.
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
    void stage_busy(const NeighborOp& op);   ///< busy_ of the candidate
    void stage_unions(const NeighborOp& op); ///< register_bits_ of the candidate
    double replay_suffix(const NeighborOp& op, std::size_t suffix_pos); ///< the latency
    // finish_metrics' arithmetic, shared with the bound so both perform
    // the same floating-point operations.
    DesignMetrics finish_metrics(double latency);
    double pipelined_tm(double latency); ///< fills busy_seconds_ from busy_
    double gamma_at(double tm_seconds) const;
    bool within_deadline(double tm_seconds) const;
    void check_mapping(const Mapping& mapping) const;

    // Memo: a direct-mapped cache over a flat key arena. A key is the
    // base mapping with the op applied; the hash of a mapping is the XOR
    // of key_term(t, core_of(t)) over its tasks.
    std::uint64_t key_term(TaskId task, CoreId core) const;
    std::uint64_t hash_key(const CoreId* key) const;
    const DesignMetrics* memo_find(std::uint64_t hash, const NeighborOp& op) const;
    void memo_insert(std::uint64_t hash, const NeighborOp& op, const DesignMetrics& metrics);

    std::uint64_t weighted_bits(const std::uint64_t* row) const;

    const EvaluationContext& ctx_;
    EvalOptions options_;
    std::size_t n_ = 0;
    std::size_t cores_ = 0;
    std::size_t words_ = 0; ///< fixed bitset width: register words per row
    double batches_ = 1.0;

    // Per-scaling precomputation.
    std::vector<TaskId> order_;          ///< static schedule order
    std::vector<std::size_t> pos_;       ///< task -> position in order_
    std::vector<std::size_t> suffix_start_; ///< task -> earliest affected position
    std::vector<double> core_freq_;
    std::vector<double> ser_rate_;       ///< SER per bit-second at each core's Vdd
    std::vector<double> active_power_mw_;
    std::vector<double> exec_seconds_; ///< [task * cores_ + core]: per-batch execution time
    std::vector<double> comm_seconds_; ///< [edge * cores_ + core]: per-batch transfer time
    /// Struct-of-arrays register state: each task's register set as a
    /// fixed-width row of `words_` words (row-major arena, n_ rows), so
    /// a per-core union is a contiguous `dst[w] |= src[w]` word loop
    /// the compiler can vectorize — no pointer-chasing through
    /// RegisterSet's per-set heap blocks.
    std::vector<std::uint64_t> task_reg_words_; ///< [task * words_ + w]
    std::vector<std::uint64_t> reg_bits_;       ///< register id -> width in bits

    // Scratch reused by every evaluation (no steady-state allocation).
    std::vector<double> data_ready_;
    std::vector<double> core_free_;
    std::vector<std::uint64_t> busy_;
    std::vector<double> busy_seconds_;
    std::vector<double> utilization_;
    std::vector<std::uint64_t> register_bits_;
    std::vector<std::int64_t> busy_delta_;
    std::vector<std::uint64_t> union_words_;   ///< [core * words_ + w]
    std::vector<std::uint64_t> scratch_words_; ///< one row, incremental path
    Mapping mapping_scratch_; ///< naive_reference candidate materialization

    // Incremental base state (valid while has_base_).
    bool has_base_ = false;
    Mapping base_;
    DesignMetrics base_metrics_;
    /// base_latency_prefix_[p]: the latency of the base schedule's first
    /// p placements (n_ + 1 entries, [0] = 0).
    std::vector<double> base_latency_prefix_;
    std::vector<double> base_arrival_;      ///< per edge: data-arrival instant
    std::vector<double> base_core_free_at_; ///< position-major [pos * cores + core]
    std::vector<std::uint64_t> base_busy_;
    std::vector<std::uint64_t> base_bits_;
    std::uint64_t base_key_ = 0; ///< hash_key(base_)
    // Base task->core partition in CSR form (built by each rebase into
    // fixed-capacity arrays — no per-core vectors, no steady-state
    // growth): core c's tasks are core_task_ids_[core_task_offsets_[c]
    // .. core_task_offsets_[c + 1]), ascending by task id.
    std::vector<std::size_t> core_task_offsets_; ///< cores_ + 1 entries
    std::vector<std::size_t> core_task_cursor_;  ///< counting-sort scratch
    std::vector<TaskId> core_task_ids_;          ///< n_ entries

    // Memo storage: slot i's key is memo_keys_[i * n_ .. (i + 1) * n_).
    struct MemoSlot {
        std::uint64_t hash = 0;
        bool occupied = false;
        DesignMetrics metrics;
    };
    std::vector<MemoSlot> memo_; ///< power-of-two size
    std::vector<CoreId> memo_keys_;

    Stats stats_;
};

} // namespace seamap
