#include "core/eval_context.h"

#include "sched/list_scheduler.h"
#include "taskgraph/register_file.h"

#include <algorithm>
#include <stdexcept>

// This file is the zero-steady-state-allocation evaluation engine: the
// marker below arms seamap_lint's hot-path-alloc rule, so any
// allocation-shaped call added outside the constructor's allowed setup
// region fails `make lint` (and tests/core/eval_context_alloc_test.cpp
// enforces the same property at runtime via the operator-new guard).
// seamap-lint: hot-path

namespace seamap {

NeighborOp random_neighbor_op(Mapping& mapping, Rng& rng, double swap_probability,
                              bool require_all_cores) {
    const auto tasks = static_cast<std::int64_t>(mapping.task_count());
    const auto cores = static_cast<std::int64_t>(mapping.core_count());
    if (cores < 2 || tasks < 1) return {};
    if (tasks >= 2 && rng.uniform() < swap_probability) {
        // Swaps never change per-core populations, so they are always
        // admissible under require_all_cores.
        for (int attempt = 0; attempt < 8; ++attempt) {
            const auto a = static_cast<TaskId>(rng.uniform_int(0, tasks - 1));
            const auto b = static_cast<TaskId>(rng.uniform_int(0, tasks - 1));
            if (a == b || mapping.core_of(a) == mapping.core_of(b)) continue;
            const CoreId core_a = mapping.core_of(a);
            const CoreId core_b = mapping.core_of(b);
            mapping.assign(a, core_b);
            mapping.assign(b, core_a);
            return {a, core_b, b, core_a};
        }
    }
    for (int attempt = 0; attempt < 8; ++attempt) {
        const auto task = static_cast<TaskId>(rng.uniform_int(0, tasks - 1));
        const CoreId from = mapping.core_of(task);
        if (require_all_cores && mapping.task_count_on(from) == 1)
            continue; // would empty its core
        auto target = static_cast<CoreId>(rng.uniform_int(0, cores - 2));
        if (target >= from) ++target;
        mapping.assign(task, target);
        return NeighborOp::move(task, target);
    }
    return {};
}

// seamap-lint: push-allow(hot-path-alloc) -- constructor: one-time
// per-scaling precomputation and scratch sizing; nothing here runs in
// the steady-state evaluation loop
EvalContext::EvalContext(const EvaluationContext& ctx, EvalOptions options)
    : ctx_(ctx), options_(options) {
    ctx_.arch.validate_scaling(ctx_.levels);
    n_ = ctx_.graph.task_count();
    cores_ = ctx_.arch.core_count();
    batches_ = static_cast<double>(ctx_.graph.batch_count());

    order_ = static_schedule_order(ctx_.graph);
    pos_.resize(n_);
    for (std::size_t p = 0; p < n_; ++p) pos_[order_[p]] = p;
    // Earliest placement position a mutation of task t can influence:
    // every predecessor of t is placed before t, and positions before
    // the earliest predecessor see neither t's core (no edges into t
    // originate there) nor any other changed core.
    suffix_start_.resize(n_);
    for (TaskId t = 0; t < n_; ++t) {
        std::size_t s = pos_[t];
        for (std::size_t idx : ctx_.graph.in_edge_indices(t))
            s = std::min(s, pos_[ctx_.graph.edge(idx).src]);
        suffix_start_[t] = s;
    }

    core_freq_.resize(cores_);
    ser_rate_.resize(cores_);
    active_power_mw_.resize(cores_);
    for (std::size_t c = 0; c < cores_; ++c) {
        core_freq_[c] = ctx_.arch.frequency_hz(ctx_.levels[c]);
        ser_rate_[c] = ctx_.estimator.ser_model().ser_per_bit_second(
            ctx_.arch.scaling_table().vdd(ctx_.levels[c]));
        active_power_mw_[c] = ctx_.arch.power_model().core_active_power_mw(ctx_.levels[c]);
    }
    // Per-batch execution and transfer times on every core: the exact
    // quotients (cycles / batches / frequency) the list scheduler forms
    // per placement, hoisted out of the evaluation loop.
    exec_seconds_.resize(n_ * cores_);
    for (TaskId t = 0; t < n_; ++t)
        for (std::size_t c = 0; c < cores_; ++c)
            exec_seconds_[t * cores_ + c] =
                static_cast<double>(ctx_.graph.task(t).exec_cycles) / batches_ / core_freq_[c];
    comm_seconds_.resize(ctx_.graph.edge_count() * cores_);
    for (std::size_t idx = 0; idx < ctx_.graph.edge_count(); ++idx)
        for (std::size_t c = 0; c < cores_; ++c)
            comm_seconds_[idx * cores_ + c] =
                static_cast<double>(ctx_.graph.edge(idx).comm_cycles) / batches_ / core_freq_[c];

    const std::size_t universe = ctx_.graph.register_file().size();
    words_ = (universe + 63) / 64;
    // SoA register state: every task's register set flattened into one
    // fixed-width row of the arena (tasks whose backing sets are
    // shorter — default-constructed empties — zero-fill), plus the
    // per-register width table the weighted popcount reads.
    task_reg_words_.assign(n_ * words_, 0);
    for (TaskId t = 0; t < n_; ++t) {
        const RegisterSet& regs = ctx_.graph.task(t).registers;
        std::copy_n(regs.words(), std::min(regs.word_count(), words_),
                    task_reg_words_.begin() + static_cast<std::ptrdiff_t>(t * words_));
    }
    reg_bits_.resize(universe);
    for (RegisterId r = 0; r < universe; ++r)
        reg_bits_[r] = ctx_.graph.register_file().bits(r);

    data_ready_.resize(n_);
    core_free_.resize(cores_);
    busy_.resize(cores_);
    busy_seconds_.resize(cores_);
    utilization_.resize(cores_);
    register_bits_.resize(cores_);
    busy_delta_.resize(cores_);
    union_words_.resize(cores_ * words_);
    scratch_words_.resize(words_);

    base_latency_prefix_.resize(n_ + 1);
    base_arrival_.resize(ctx_.graph.edge_count());
    base_core_free_at_.resize(n_ * cores_);
    base_busy_.resize(cores_);
    base_bits_.resize(cores_);
    core_task_offsets_.resize(cores_ + 1);
    core_task_cursor_.resize(cores_);
    core_task_ids_.resize(n_);

    // The memo: the most power-of-two slots (at least one) whose
    // records and keys fit the byte budget, allocated once.
    const std::size_t slot_bytes = sizeof(MemoSlot) + n_ * sizeof(CoreId);
    std::size_t slots = 1;
    while (2 * slots * slot_bytes <= k_memo_budget_bytes) slots *= 2;
    memo_.resize(slots);
    memo_keys_.resize(slots * n_);
    stats_.memo_bytes = slots * slot_bytes;
}
// seamap-lint: pop-allow(hot-path-alloc)

void EvalContext::check_mapping(const Mapping& mapping) const {
    if (mapping.task_count() != n_)
        throw std::invalid_argument("EvalContext: mapping task count != graph task count");
    if (mapping.core_count() != cores_)
        throw std::invalid_argument("EvalContext: mapping core count != architecture");
    if (!mapping.complete())
        throw std::invalid_argument("EvalContext: mapping is incomplete");
}

// Identical arithmetic, in identical order, to ListScheduler::schedule
// + per_core_busy_cycles + per_core_register_bits + SeuEstimator::
// estimate + PowerModel::mpsoc_power_mw — the equivalence harness pins
// this correspondence bit-for-bit.
DesignMetrics EvalContext::evaluate_full() {
    const CoreId* core_of = base_.raw().data();

    std::fill(data_ready_.begin(), data_ready_.end(), 0.0);
    std::fill(core_free_.begin(), core_free_.end(), 0.0);
    // Whole-run busy cycles (eq. 7 attribution) accumulate alongside
    // the placements; integer sums are exact in any order.
    std::fill(busy_.begin(), busy_.end(), std::uint64_t{0});
    // The latency is the maximum finish time; max is exact, so taking
    // it in placement order equals the scheduler's id-order scan.
    double latency = 0.0;
    for (std::size_t p = 0; p < n_; ++p) {
        std::copy(core_free_.begin(), core_free_.end(),
                  base_core_free_at_.begin() + static_cast<std::ptrdiff_t>(p * cores_));
        base_latency_prefix_[p] = latency;
        const TaskId t = order_[p];
        const CoreId core = core_of[t];
        const double start = std::max(core_free_[core], data_ready_[t]);
        const double finish = start + exec_seconds_[t * cores_ + core];
        latency = std::max(latency, finish);
        busy_[core] += ctx_.graph.task(t).exec_cycles;
        double cursor = finish;
        for (std::size_t idx : ctx_.graph.out_edge_indices(t)) {
            const Edge& e = ctx_.graph.edge(idx);
            double arrival = finish;
            if (core_of[e.dst] != core) {
                cursor += comm_seconds_[idx * cores_ + core];
                arrival = cursor;
                busy_[core] += e.comm_cycles;
            }
            base_arrival_[idx] = arrival;
            data_ready_[e.dst] = std::max(data_ready_[e.dst], arrival);
        }
        core_free_[core] = cursor;
    }
    base_latency_prefix_[n_] = latency;

    // Per-core register unions, eq. (8): fixed-width word rows, so the
    // per-task OR is a contiguous word loop over the arena rows (the
    // vectorizable SoA form of `union[core] |= task.registers`).
    std::fill(union_words_.begin(), union_words_.end(), std::uint64_t{0});
    for (TaskId t = 0; t < n_; ++t) {
        std::uint64_t* dst = union_words_.data() + core_of[t] * words_;
        const std::uint64_t* src = task_reg_words_.data() + t * words_;
        for (std::size_t w = 0; w < words_; ++w) dst[w] |= src[w];
    }
    for (std::size_t c = 0; c < cores_; ++c)
        register_bits_[c] = weighted_bits(union_words_.data() + c * words_);

    std::copy(busy_.begin(), busy_.end(), base_busy_.begin());
    std::copy(register_bits_.begin(), register_bits_.end(), base_bits_.begin());
    // Counting sort into the CSR partition (fixed-capacity arrays;
    // iterating tasks in id order keeps each core's slice ascending).
    std::fill(core_task_cursor_.begin(), core_task_cursor_.end(), std::size_t{0});
    for (TaskId t = 0; t < n_; ++t) ++core_task_cursor_[core_of[t]];
    core_task_offsets_[0] = 0;
    for (std::size_t c = 0; c < cores_; ++c)
        core_task_offsets_[c + 1] = core_task_offsets_[c] + core_task_cursor_[c];
    std::copy(core_task_offsets_.begin(), core_task_offsets_.end() - 1,
              core_task_cursor_.begin());
    for (TaskId t = 0; t < n_; ++t) core_task_ids_[core_task_cursor_[core_of[t]]++] = t;
    return finish_metrics(latency);
}

std::uint64_t EvalContext::weighted_bits(const std::uint64_t* row) const {
    // Weighted popcount of one union row: the eq. (8) |R| term. Integer
    // addition commutes exactly, so the value is bit-identical to
    // RegisterSet::bits_in whatever the traversal order.
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t word = row[w];
        while (word != 0) {
            const auto bit = static_cast<unsigned>(__builtin_ctzll(word));
            total += reg_bits_[w * 64 + bit];
            word &= word - 1;
        }
    }
    return total;
}

DesignMetrics EvalContext::finish_metrics(double latency) {
    DesignMetrics metrics;
    metrics.latency_seconds = latency;
    metrics.tm_seconds = pipelined_tm(latency);
    for (std::size_t c = 0; c < cores_; ++c) {
        utilization_[c] = metrics.tm_seconds > 0.0
                              ? std::min(1.0, busy_seconds_[c] / metrics.tm_seconds)
                              : 0.0;
    }
    std::uint64_t total_bits = 0;
    for (std::size_t c = 0; c < cores_; ++c) total_bits += register_bits_[c];
    metrics.register_bits = total_bits;
    metrics.gamma = gamma_at(metrics.tm_seconds);
    metrics.power_mw =
        ctx_.arch.power_model().mpsoc_power_mw_precomputed(active_power_mw_, utilization_);
    metrics.feasible = within_deadline(metrics.tm_seconds);
    return metrics;
}

double EvalContext::pipelined_tm(double latency) {
    double ii = 0.0;
    for (std::size_t c = 0; c < cores_; ++c) {
        busy_seconds_[c] = static_cast<double>(busy_[c]) / core_freq_[c];
        ii = std::max(ii, busy_seconds_[c] / batches_);
    }
    return latency + (batches_ - 1.0) * ii;
}

double EvalContext::gamma_at(double tm_seconds) const {
    double gamma = 0.0;
    const bool full_duration = ctx_.estimator.policy() == ExposurePolicy::full_duration;
    for (std::size_t c = 0; c < cores_; ++c) {
        if (register_bits_[c] == 0) continue; // no live state on this core
        const double exposure = full_duration ? tm_seconds : busy_seconds_[c];
        gamma += static_cast<double>(register_bits_[c]) * exposure * ser_rate_[c];
    }
    return gamma;
}

bool EvalContext::within_deadline(double tm_seconds) const {
    return tm_seconds <= ctx_.deadline_seconds * (1.0 + 1e-9);
}

DesignMetrics EvalContext::rebase(const Mapping& base) {
    check_mapping(base); // before any state changes: a rejected base keeps the previous one
    base_ = base;
    has_base_ = true;
    if (options_.naive_reference) return base_metrics_ = evaluate_design(ctx_, base_);
    ++stats_.full_evals;
    base_metrics_ = evaluate_full();
    base_key_ = hash_key(base_.raw().data());
    memo_insert(base_key_, NeighborOp{}, base_metrics_);
    return base_metrics_;
}

DesignMetrics EvalContext::evaluate_neighbor(const NeighborOp& op) {
    return *candidate(op, nullptr, nullptr);
}

std::optional<DesignMetrics> EvalContext::evaluate_bounded(const NeighborOp& op,
                                                           const DesignMetrics& walk_best,
                                                           const DesignMetrics& result_best) {
    return candidate(op, &walk_best, &result_best);
}

std::optional<DesignMetrics> EvalContext::candidate(const NeighborOp& op,
                                                    const DesignMetrics* walk_best,
                                                    const DesignMetrics* result_best) {
    if (!has_base_) throw std::logic_error("EvalContext: call rebase() first");
    if (op.none()) return base_metrics_;
    if (op.a >= n_ || op.b >= n_) throw std::invalid_argument("EvalContext: bad task id");
    if (op.core_a >= cores_ || op.core_b >= cores_)
        throw std::invalid_argument("EvalContext: bad core id");
    const CoreId* base_raw = base_.raw().data();
    if (op.core_a == base_raw[op.a] && op.core_of(base_raw, op.b) == base_raw[op.b])
        return base_metrics_;
    if (options_.naive_reference) {
        mapping_scratch_ = base_;
        mapping_scratch_.assign(op.b, op.core_b);
        mapping_scratch_.assign(op.a, op.core_a); // after b, as in memo_insert
        return evaluate_design(ctx_, mapping_scratch_);
    }
    // The base hash with each named task's term replaced; XOR commutes,
    // so this is the materialized mapping's hash_key() bit for bit.
    std::uint64_t hash =
        base_key_ ^ key_term(op.a, base_raw[op.a]) ^ key_term(op.a, op.core_a);
    if (op.b != op.a) hash ^= key_term(op.b, base_raw[op.b]) ^ key_term(op.b, op.core_b);
    if (const DesignMetrics* hit = memo_find(hash, op)) {
        ++stats_.memo_hits;
        return *hit;
    }
    const std::size_t suffix_pos = std::min(suffix_start_[op.a], suffix_start_[op.b]);
    stage_override(op);
    if (walk_best != nullptr && bound_excludes(suffix_pos, *walk_best, *result_best)) {
        ++stats_.bound_skips;
        return std::nullopt;
    }
    const DesignMetrics metrics = finish_metrics(replay_suffix(op, suffix_pos));
    memo_insert(hash, op, metrics);
    return metrics;
}

// Phase 1 of an incremental evaluation: the candidate's busy cycles and
// register unions, which need no schedule.
void EvalContext::stage_override(const NeighborOp& op) {
    const CoreId* base_raw = base_.raw().data();

    // Busy cycles: integer delta over the touched tasks and their
    // incident edges (exactly equal to a full eq. 7 recompute).
    std::fill(busy_delta_.begin(), busy_delta_.end(), std::int64_t{0});
    const bool two_tasks = op.b != op.a;
    auto apply_exec_delta = [&](TaskId t, CoreId cand_core) {
        const auto exec = static_cast<std::int64_t>(ctx_.graph.task(t).exec_cycles);
        busy_delta_[base_raw[t]] -= exec;
        busy_delta_[cand_core] += exec;
    };
    apply_exec_delta(op.a, op.core_a);
    if (two_tasks) apply_exec_delta(op.b, op.core_b);
    auto apply_edge_delta = [&](std::size_t idx) {
        const Edge& e = ctx_.graph.edge(idx);
        const auto comm = static_cast<std::int64_t>(e.comm_cycles);
        if (base_raw[e.src] != base_raw[e.dst]) busy_delta_[base_raw[e.src]] -= comm;
        const CoreId cand_src = op.core_of(base_raw, e.src);
        if (cand_src != op.core_of(base_raw, e.dst)) busy_delta_[cand_src] += comm;
    };
    for (std::size_t idx : ctx_.graph.out_edge_indices(op.a)) apply_edge_delta(idx);
    for (std::size_t idx : ctx_.graph.in_edge_indices(op.a)) apply_edge_delta(idx);
    if (two_tasks) {
        // Skip edges already handled through task a.
        for (std::size_t idx : ctx_.graph.out_edge_indices(op.b))
            if (ctx_.graph.edge(idx).dst != op.a) apply_edge_delta(idx);
        for (std::size_t idx : ctx_.graph.in_edge_indices(op.b))
            if (ctx_.graph.edge(idx).src != op.a) apply_edge_delta(idx);
    }
    for (std::size_t c = 0; c < cores_; ++c)
        busy_[c] = static_cast<std::uint64_t>(static_cast<std::int64_t>(base_busy_[c]) +
                                              busy_delta_[c]);

    // Register unions: only the cores whose task sets changed. Unions
    // are set algebra, so recomputing the two touched cores from their
    // base task lists gives exactly the full eq. 8 result. Same SoA
    // word-row OR as the full pass, over the CSR task slice.
    std::copy(base_bits_.begin(), base_bits_.end(), register_bits_.begin());
    auto or_task_row = [&](TaskId t) {
        const std::uint64_t* src = task_reg_words_.data() + t * words_;
        for (std::size_t w = 0; w < words_; ++w) scratch_words_[w] |= src[w];
    };
    auto recompute_core_bits = [&](CoreId c) {
        std::fill(scratch_words_.begin(), scratch_words_.end(), std::uint64_t{0});
        for (std::size_t i = core_task_offsets_[c]; i < core_task_offsets_[c + 1]; ++i) {
            const TaskId t = core_task_ids_[i];
            if (op.core_of(base_raw, t) == c) or_task_row(t);
        }
        if (op.core_a == c && base_raw[op.a] != c) or_task_row(op.a);
        if (two_tasks && op.core_b == c && base_raw[op.b] != c) or_task_row(op.b);
        register_bits_[c] = weighted_bits(scratch_words_.data());
    };
    recompute_core_bits(base_raw[op.a]);
    recompute_core_bits(op.core_a);
    if (two_tasks) {
        if (base_raw[op.b] != base_raw[op.a] && base_raw[op.b] != op.core_a)
            recompute_core_bits(base_raw[op.b]);
        if (op.core_b != base_raw[op.a] && op.core_b != op.core_a)
            recompute_core_bits(op.core_b);
    }
}

// Phase 2: the schedule-free bound (file comment). True when the
// candidate provably improves neither reference under the sweep's rules;
// requires stage_override(op) for the same candidate.
bool EvalContext::bound_excludes(std::size_t suffix_pos, const DesignMetrics& walk_best,
                                 const DesignMetrics& result_best) {
    const double tm_lb = pipelined_tm(base_latency_prefix_[suffix_pos]);
    if (!within_deadline(tm_lb)) {
        // Infeasible: it can only beat an infeasible reference on T_M.
        return (walk_best.feasible || tm_lb >= walk_best.tm_seconds) &&
               (result_best.feasible || tm_lb >= result_best.tm_seconds);
    }
    // Possibly feasible, which beats any infeasible reference.
    if (!walk_best.feasible || !result_best.feasible) return false;
    const double gamma_lb = gamma_at(tm_lb);
    return gamma_lb >= walk_best.gamma && gamma_lb >= result_best.gamma;
}

// Phase 3: replay the schedule suffix and return the candidate's latency.
double EvalContext::replay_suffix(const NeighborOp& op, std::size_t suffix_pos) {
    ++stats_.incremental_evals;
    const CoreId* base_raw = base_.raw().data();

    // Restore the timeline state as of `suffix_pos` (every placement
    // before it is provably identical under the override) and replay
    // only the suffix with the candidate core lookup.
    std::copy_n(base_core_free_at_.begin() +
                    static_cast<std::ptrdiff_t>(suffix_pos * cores_),
                cores_, core_free_.begin());
    for (std::size_t q = suffix_pos; q < n_; ++q) {
        const TaskId w = order_[q];
        double ready = 0.0;
        for (std::size_t idx : ctx_.graph.in_edge_indices(w)) {
            if (pos_[ctx_.graph.edge(idx).src] < suffix_pos)
                ready = std::max(ready, base_arrival_[idx]);
        }
        data_ready_[w] = ready;
    }
    // The prefix's finish times are the base's, so its latency share is
    // the recorded prefix maximum.
    double latency = base_latency_prefix_[suffix_pos];
    for (std::size_t q = suffix_pos; q < n_; ++q) {
        const TaskId w = order_[q];
        const CoreId core = op.core_of(base_raw, w);
        const double start = std::max(core_free_[core], data_ready_[w]);
        const double finish = start + exec_seconds_[w * cores_ + core];
        latency = std::max(latency, finish);
        double cursor = finish;
        for (std::size_t idx : ctx_.graph.out_edge_indices(w)) {
            const Edge& e = ctx_.graph.edge(idx);
            double arrival = finish;
            if (op.core_of(base_raw, e.dst) != core) {
                cursor += comm_seconds_[idx * cores_ + core];
                arrival = cursor;
            }
            data_ready_[e.dst] = std::max(data_ready_[e.dst], arrival);
        }
        core_free_[core] = cursor;
    }
    return latency;
}

std::uint64_t EvalContext::key_term(TaskId task, CoreId core) const {
    return splitmix64(0x9e3779b97f4a7c15ULL ^ (std::uint64_t{task} * cores_ + core));
}

std::uint64_t EvalContext::hash_key(const CoreId* key) const {
    std::uint64_t hash = 0;
    for (TaskId t = 0; t < n_; ++t) hash ^= key_term(t, key[t]);
    return hash;
}

const DesignMetrics* EvalContext::memo_find(std::uint64_t hash, const NeighborOp& op) const {
    const std::size_t i = hash & (memo_.size() - 1);
    const MemoSlot& slot = memo_[i];
    if (!slot.occupied || slot.hash != hash) return nullptr;
    // Exact key comparison: a hash collision never returns wrong metrics.
    const CoreId* stored = memo_keys_.data() + i * n_;
    TaskId t = 0;
    const CoreId* base = base_.raw().data();
    while (t < n_ && stored[t] == op.core_of(base, t)) ++t;
    return t == n_ ? &slot.metrics : nullptr;
}

void EvalContext::memo_insert(std::uint64_t hash, const NeighborOp& op,
                              const DesignMetrics& metrics) {
    const std::size_t i = hash & (memo_.size() - 1);
    MemoSlot& slot = memo_[i];
    if (!slot.occupied) ++stats_.memo_entries;
    slot = MemoSlot{hash, true, metrics};
    CoreId* key = memo_keys_.data() + i * n_;
    std::copy_n(base_.raw().data(), n_, key);
    if (!op.none()) {
        key[op.b] = op.core_b;
        key[op.a] = op.core_a; // after b: `a` wins when a == b, as in core_of
    }
}

} // namespace seamap
