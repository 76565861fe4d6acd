#include "core/eval_context.h"

#include "sched/list_scheduler.h"
#include "taskgraph/register_file.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

// This file is the zero-steady-state-allocation evaluation engine: the
// marker below arms seamap_lint's hot-path-alloc rule, so any
// allocation-shaped call added outside the setup region of the plan and
// the constructors fails `make lint` (and
// tests/core/eval_context_alloc_test.cpp enforces the same property at
// runtime via the operator-new guard).
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

// seamap-lint: push-allow(hot-path-alloc) -- plan and constructors:
// one-time setup and scratch sizing; nothing here runs per slot or per
// candidate
EvalPlan::EvalPlan(const TaskGraph& g, std::size_t core_count)
    : graph(&g), n(g.task_count()), cores(core_count), order(static_schedule_order(g)), pos(n),
      suffix_start(n), out_begin(n + 1), in_begin(n + 1), key_terms(n * core_count) {
    for (std::size_t p = 0; p < n; ++p) pos[order[p]] = p;
    // CSR adjacency with edges renumbered in out-edge order, so a
    // task's out-edges (and their per-edge tables) are contiguous.
    std::vector<std::size_t> number(g.edge_count());
    for (TaskId t = 0; t < n; ++t) {
        for (std::size_t idx : g.out_edge_indices(t)) {
            number[idx] = edge_src.size();
            edge_src.push_back(t);
            edge_dst.push_back(g.edge(idx).dst);
            comm_cycles.push_back(g.edge(idx).comm_cycles);
        }
        out_begin[t + 1] = edge_src.size();
        exec_cycles.push_back(g.task(t).exec_cycles);
    }
    // Earliest placement position a mutation of task t can influence:
    // every predecessor of t is placed before t, and positions before
    // the earliest predecessor see neither t's core (no edges into t
    // originate there) nor any other changed core.
    for (TaskId t = 0; t < n; ++t) {
        suffix_start[t] = pos[t];
        for (std::size_t idx : g.in_edge_indices(t)) {
            in_edges.push_back(number[idx]);
            suffix_start[t] = std::min(suffix_start[t], pos[g.edge(idx).src]);
        }
        in_begin[t + 1] = in_edges.size();
    }
    // Register rows (tasks whose backing sets are shorter zero-fill)
    // plus the per-register width table the weighted popcount reads.
    const std::size_t universe = g.register_file().size();
    words = (universe + 63) / 64;
    reg_words.assign(n * words, 0);
    for (TaskId t = 0; t < n; ++t) {
        const RegisterSet& regs = g.task(t).registers;
        std::copy_n(regs.words(), std::min(regs.word_count(), words),
                    reg_words.begin() + static_cast<std::ptrdiff_t>(t * words));
    }
    for (RegisterId r = 0; r < universe; ++r) reg_bits.push_back(g.register_file().bits(r));
    for (std::size_t i = 0; i < key_terms.size(); ++i) // i = task * cores + core
        key_terms[i] = splitmix64(0x9e3779b97f4a7c15ULL ^ i);
}

EvalContext::EvalContext(std::shared_ptr<const EvalPlan> plan, EvalOptions options)
    : plan_(std::move(plan)), options_(options), n_(plan_->n), cores_(plan_->cores),
      words_(plan_->words) {
    auto size = [](std::size_t count, auto&... vectors) { (vectors.resize(count), ...); };
    size(cores_, core_freq_, ser_rate_, active_power_mw_, core_free_, busy_seconds_, utilization_,
         base_core_free_, base_busy_seconds_, register_bits_, busy_, base_busy_, base_bits_,
         touched_, touched_mark_);
    size(n_, data_ready_, base_free_log_, shadow_free_log_, core_task_ids_);
    size(n_ * cores_, exec_seconds_);
    size(plan_->edge_src.size() * cores_, comm_seconds_);
    size(plan_->edge_src.size(), base_arrival_, shadow_arrival_);
    size(n_, base_latency_prefix_, shadow_latency_prefix_);
    size(cores_ + 1, core_task_offsets_);
    size(words_, scratch_words_);

    // The memo: the most power-of-two slots (at least one) whose
    // records and keys fit the byte budget, allocated once.
    const std::size_t slot_bytes = sizeof(MemoSlot) + n_ * sizeof(CoreId);
    std::size_t slots = 1;
    while (2 * slots * slot_bytes <= k_memo_budget_bytes) slots *= 2;
    memo_.resize(slots);
    memo_keys_.resize(slots * n_);
    stats_.memo_bytes = slots * slot_bytes;
}

EvalContext::EvalContext(const EvaluationContext& ctx, EvalOptions options)
    : EvalContext(std::make_shared<const EvalPlan>(ctx.graph, ctx.arch.core_count()), options) {
    rebind(ctx);
}
// seamap-lint: pop-allow(hot-path-alloc)

void EvalContext::rebind(const EvaluationContext& ctx) {
    if (&ctx.graph != plan_->graph || ctx.arch.core_count() != cores_)
        throw std::invalid_argument("EvalContext: problem is not over the plan's graph and cores");
    ctx.arch.validate_scaling(ctx.levels);
    ctx_ = &ctx;
    batches_ = static_cast<double>(ctx.graph.batch_count());
    for (std::size_t c = 0; c < cores_; ++c) {
        core_freq_[c] = ctx.arch.frequency_hz(ctx.levels[c]);
        ser_rate_[c] = ctx.estimator.ser_model().ser_per_bit_second(
            ctx.arch.scaling_table().vdd(ctx.levels[c]));
        active_power_mw_[c] = ctx.arch.power_model().core_active_power_mw(ctx.levels[c]);
    }
    // Per-batch execution and transfer times on every core: the exact
    // quotients (cycles / batches / frequency) the list scheduler forms
    // per placement, hoisted out of the evaluation loop.
    const EvalPlan& plan = *plan_;
    for (std::size_t t = 0; t < n_; ++t)
        for (std::size_t c = 0; c < cores_; ++c)
            exec_seconds_[t * cores_ + c] =
                static_cast<double>(plan.exec_cycles[t]) / batches_ / core_freq_[c];
    for (std::size_t k = 0; k < plan.comm_cycles.size(); ++k)
        for (std::size_t c = 0; c < cores_; ++c)
            comm_seconds_[k * cores_ + c] =
                static_cast<double>(plan.comm_cycles[k]) / batches_ / core_freq_[c];
    has_base_ = false;
    ++memo_epoch_; // every memo slot is stale from now on
    stats_ = Stats{.memo_bytes = stats_.memo_bytes};
}

// Identical arithmetic, in identical order, to ListScheduler::schedule
// + per_core_busy_cycles + per_core_register_bits + SeuEstimator::
// estimate + PowerModel::mpsoc_power_mw — the equivalence harness pins
// this correspondence bit-for-bit.
DesignMetrics EvalContext::evaluate_full() {
    shadow_op_ = {};
    if (options_.naive_reference) return base_metrics_ = evaluate_design(*ctx_, base_);
    ++stats_.full_evals;
    reset_touched();
    std::fill(data_ready_.begin(), data_ready_.end(), 0.0);
    std::fill(core_free_.begin(), core_free_.end(), 0.0);
    std::fill(base_busy_.begin(), base_busy_.end(), std::uint64_t{0});
    const double latency = place<true>(NeighborOp{}, 0, 0.0);
    std::copy(core_free_.begin(), core_free_.end(), base_core_free_.begin());

    // The II over every core. x / B is monotone, so the largest term is
    // the largest busy time's.
    double max_seconds = 0.0;
    for (CoreId c = 0; c < cores_; ++c) {
        busy_seconds_[c] = static_cast<double>(base_busy_[c]) / core_freq_[c];
        base_busy_seconds_[c] = busy_seconds_[c];
        max_seconds = std::max(max_seconds, busy_seconds_[c]);
    }
    staged_ii_ = max_seconds / batches_;
    index_base();
    for (CoreId c = 0; c < cores_; ++c) register_bits_[c] = core_union_bits(c, NeighborOp{});
    std::copy(register_bits_.begin(), register_bits_.end(), base_bits_.begin());
    base_metrics_ = finish_metrics(latency);
    base_key_ = 0;
    for (TaskId t = 0; t < n_; ++t) base_key_ ^= plan_->key_terms[t * cores_ + base_.core_of(t)];
    memo_insert(base_key_, NeighborOp{}, base_metrics_);
    return base_metrics_;
}

void EvalContext::index_base() {
    // Counting sort into the CSR partition the per-core register unions
    // (eq. 8) read; iterating tasks in id order keeps each core's slice
    // ascending. Each core's start serves as its cursor, so the starts
    // shift back one core afterwards.
    const CoreId* core_of = base_.raw().data();
    std::vector<std::size_t>& offsets = core_task_offsets_;
    std::fill(offsets.begin(), offsets.end(), std::size_t{0});
    for (TaskId t = 0; t < n_; ++t) ++offsets[core_of[t] + 1];
    for (std::size_t c = 0; c < cores_; ++c) offsets[c + 1] += offsets[c];
    for (TaskId t = 0; t < n_; ++t) core_task_ids_[offsets[core_of[t]]++] = t;
    for (std::size_t c = cores_; c > 0; --c) offsets[c] = offsets[c - 1];
    offsets[0] = 0;
    // The k_ii_top busiest cores, busiest first (insertion into a short
    // list; ties keep core order), for the T_M tiers.
    ii_top_count_ = 0;
    for (CoreId c = 0; c < cores_; ++c) {
        const double seconds = base_busy_seconds_[c];
        if (ii_top_count_ < k_ii_top)
            ++ii_top_count_;
        else if (seconds <= base_busy_seconds_[ii_top_[k_ii_top - 1]])
            continue;
        std::size_t i = ii_top_count_ - 1;
        for (; i > 0 && base_busy_seconds_[ii_top_[i - 1]] < seconds; --i)
            ii_top_[i] = ii_top_[i - 1];
        ii_top_[i] = c;
    }
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
            total += plan_->reg_bits[w * 64 + bit];
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
        ctx_->arch.power_model().mpsoc_power_mw_precomputed(active_power_mw_, utilization_);
    metrics.feasible = within_deadline(metrics.tm_seconds);
    return metrics;
}

double EvalContext::gamma_at(double tm_seconds) const {
    double gamma = 0.0;
    const bool full_duration = ctx_->estimator.policy() == ExposurePolicy::full_duration;
    for (std::size_t c = 0; c < cores_; ++c) {
        if (register_bits_[c] == 0) continue; // no live state on this core
        const double exposure = full_duration ? tm_seconds : busy_seconds_[c];
        gamma += static_cast<double>(register_bits_[c]) * exposure * ser_rate_[c];
    }
    return gamma;
}

DesignMetrics EvalContext::rebase(const Mapping& base) {
    if (ctx_ == nullptr) throw std::logic_error("EvalContext: call rebind() first");
    // Checked before any state changes: a rejected base keeps the previous one.
    if (base.task_count() != n_)
        throw std::invalid_argument("EvalContext: mapping task count != graph task count");
    if (base.core_count() != cores_)
        throw std::invalid_argument("EvalContext: mapping core count != architecture");
    if (!base.complete()) throw std::invalid_argument("EvalContext: mapping is incomplete");
    base_ = base;
    has_base_ = true;
    return evaluate_full();
}

void EvalContext::check_op(const NeighborOp& op) const {
    if (op.a >= n_ || op.b >= n_) throw std::invalid_argument("EvalContext: bad task id");
    if (op.core_a >= cores_ || op.core_b >= cores_)
        throw std::invalid_argument("EvalContext: bad core id");
}

DesignMetrics EvalContext::accept(const NeighborOp& op) {
    if (!has_base_) throw std::logic_error("EvalContext: call rebase() first");
    if (op.none()) return base_metrics_;
    check_op(op);
    base_.assign(op.b, op.core_b);
    base_.assign(op.a, op.core_a); // after b: `a` wins when a == b, as in core_of
    if (op != shadow_op_) return evaluate_full();
    // Promote the replay: its logs from the suffix on (the prefix is the
    // old base's), its staged busy cycles and unions and its memo entry.
    const EvalPlan& plan = *plan_;
    for (std::size_t q = shadow_suffix_pos_; q < n_; ++q) {
        base_latency_prefix_[q] = shadow_latency_prefix_[q];
        base_free_log_[q] = shadow_free_log_[q];
        const TaskId w = plan.order[q];
        for (std::size_t k = plan.out_begin[w]; k < plan.out_begin[w + 1]; ++k)
            base_arrival_[k] = shadow_arrival_[k];
    }
    std::copy(core_free_.begin(), core_free_.end(), base_core_free_.begin());
    for (std::size_t i = 0; i < touched_count_; ++i) {
        const CoreId c = touched_[i];
        base_busy_[c] = busy_[c];
        base_busy_seconds_[c] = busy_seconds_[c];
    }
    reset_touched();
    std::copy(register_bits_.begin(), register_bits_.end(), base_bits_.begin());
    index_base();
    ++stats_.full_evals;
    ++stats_.promotions;
    shadow_op_ = {};
    base_key_ = shadow_key_; // the last memo insert, as evaluate_full() would make it
    return base_metrics_ = memo_[base_key_ & (memo_.size() - 1)].metrics;
}

bool EvalContext::skip_moves_of(TaskId t, const DesignMetrics& walk_best,
                                const DesignMetrics& result_best) {
    if (!has_base_) throw std::logic_error("EvalContext: call rebase() first");
    if (t >= n_) throw std::invalid_argument("EvalContext: bad task id");
    if (options_.naive_reference) return false;
    // A move of t unloads t's core and maybe an in-neighbour's (a
    // transfer into t turned local); other cores' busy cycles only grow,
    // so their busiest bounds every move's staged II, and row_lb its tm_lb.
    const EvalPlan& plan = *plan_;
    const CoreId* base_raw = base_.raw().data();
    auto may_drop = [&](CoreId c) {
        if (c == base_raw[t]) return true;
        for (std::size_t i = plan.in_begin[t]; i < plan.in_begin[t + 1]; ++i)
            if (base_raw[plan.edge_src[plan.in_edges[i]]] == c) return true;
        return false;
    };
    double max_seconds = 0.0;
    std::size_t i = 0;
    while (i < ii_top_count_ && may_drop(ii_top_[i])) ++i;
    if (i < ii_top_count_)
        max_seconds = base_busy_seconds_[ii_top_[i]];
    else
        for (CoreId c = 0; c < cores_; ++c)
            if (!may_drop(c)) max_seconds = std::max(max_seconds, base_busy_seconds_[c]);
    // pipelined_tm's operations, on this II.
    const double row_lb = base_latency_prefix_[plan.suffix_start[t]] +
                          (batches_ - 1.0) * (max_seconds / batches_);
    if (!tm_rules_out(row_lb, walk_best, result_best)) return false;
    const std::uint64_t moves = cores_ - 1;
    stats_.bound_skips += moves;
    stats_.tm_skips += moves;
    stats_.row_skips += moves;
    return true;
}

std::optional<DesignMetrics> EvalContext::candidate(const NeighborOp& op,
                                                    const DesignMetrics* walk_best,
                                                    const DesignMetrics* result_best) {
    if (!has_base_) throw std::logic_error("EvalContext: call rebase() first");
    if (op.none()) return base_metrics_;
    check_op(op);
    const CoreId* base_raw = base_.raw().data();
    if (op.core_a == base_raw[op.a] && op.core_of(base_raw, op.b) == base_raw[op.b])
        return base_metrics_;
    if (options_.naive_reference) {
        mapping_scratch_ = base_;
        mapping_scratch_.assign(op.b, op.core_b);
        mapping_scratch_.assign(op.a, op.core_a); // after b, as in memo_insert
        return evaluate_design(*ctx_, mapping_scratch_);
    }
    // The base hash with each named task's term replaced; XOR commutes,
    // so this is the materialized mapping's hash bit for bit.
    const std::uint64_t* terms = plan_->key_terms.data();
    std::uint64_t hash = base_key_ ^ terms[op.a * cores_ + base_raw[op.a]] ^
                         terms[op.a * cores_ + op.core_a];
    if (op.b != op.a)
        hash ^= terms[op.b * cores_ + base_raw[op.b]] ^ terms[op.b * cores_ + op.core_b];
    if (const DesignMetrics* hit = memo_find(hash, op)) {
        ++stats_.memo_hits;
        return *hit;
    }
    const std::size_t suffix_pos =
        std::min(plan_->suffix_start[op.a], plan_->suffix_start[op.b]);
    stage_busy(op);
    // The bounded sweep's tiers (file comment): each runs only when the
    // ones before it cannot decide, so most skips build no union.
    bool unions_staged = false;
    if (walk_best != nullptr) {
        const double tm_lb = pipelined_tm(base_latency_prefix_[suffix_pos]);
        if (!within_deadline(tm_lb)) {
            if (tm_rules_out(tm_lb, *walk_best, *result_best)) { // T_M tier
                ++stats_.tm_skips;
                ++stats_.bound_skips;
                return std::nullopt;
            }
        } else if (walk_best->feasible && result_best->feasible) {
            // Gamma tier. Possibly feasible, which beats any infeasible
            // reference, so only two feasible ones get here.
            stage_unions(op);
            unions_staged = true;
            const double gamma_lb = gamma_at(tm_lb);
            if (gamma_lb >= walk_best->gamma && gamma_lb >= result_best->gamma) {
                ++stats_.bound_skips;
                return std::nullopt;
            }
        }
    }
    if (!unions_staged) stage_unions(op);
    const DesignMetrics metrics = finish_metrics(replay_suffix(op, suffix_pos));
    memo_insert(hash, op, metrics);
    shadow_op_ = op; // what accept(op) promotes
    shadow_suffix_pos_ = suffix_pos;
    shadow_key_ = hash;
    return metrics;
}

// The candidate's busy cycles: an integer delta over the touched tasks
// and their incident edges (exactly equal to a full eq. 7 recompute),
// staged on the touched cores only, then the II those cores and the
// base's top-k give.
void EvalContext::stage_busy(const NeighborOp& op) {
    const EvalPlan& plan = *plan_;
    const CoreId* base_raw = base_.raw().data();
    shadow_op_ = {}; // the staged state is no longer the replay's
    reset_touched();
    // Deltas are added modulo 2^64, which equals the signed sum's cast.
    auto touch = [&](CoreId c, std::uint64_t delta) {
        if (touched_mark_[c] == 0) {
            touched_mark_[c] = 1;
            touched_[touched_count_++] = c;
            busy_[c] = base_busy_[c];
        }
        busy_[c] += delta;
    };
    const bool two_tasks = op.b != op.a;
    auto apply_exec_delta = [&](TaskId t, CoreId cand_core) {
        touch(base_raw[t], -plan.exec_cycles[t]);
        touch(cand_core, plan.exec_cycles[t]);
    };
    apply_exec_delta(op.a, op.core_a);
    if (two_tasks) apply_exec_delta(op.b, op.core_b);
    auto apply_edge_delta = [&](std::size_t k) {
        const TaskId src = plan.edge_src[k];
        const TaskId dst = plan.edge_dst[k];
        if (base_raw[src] != base_raw[dst]) touch(base_raw[src], -plan.comm_cycles[k]);
        const CoreId cand_src = op.core_of(base_raw, src);
        if (cand_src != op.core_of(base_raw, dst)) touch(cand_src, plan.comm_cycles[k]);
    };
    for (std::size_t k = plan.out_begin[op.a]; k < plan.out_begin[op.a + 1]; ++k)
        apply_edge_delta(k);
    for (std::size_t i = plan.in_begin[op.a]; i < plan.in_begin[op.a + 1]; ++i)
        apply_edge_delta(plan.in_edges[i]);
    if (two_tasks) {
        // Skip edges already handled through task a.
        for (std::size_t k = plan.out_begin[op.b]; k < plan.out_begin[op.b + 1]; ++k)
            if (plan.edge_dst[k] != op.a) apply_edge_delta(k);
        for (std::size_t i = plan.in_begin[op.b]; i < plan.in_begin[op.b + 1]; ++i)
            if (plan.edge_src[plan.in_edges[i]] != op.a) apply_edge_delta(plan.in_edges[i]);
    }
    double max_seconds = 0.0;
    for (std::size_t i = 0; i < touched_count_; ++i) {
        const CoreId c = touched_[i];
        busy_seconds_[c] = static_cast<double>(busy_[c]) / core_freq_[c];
        max_seconds = std::max(max_seconds, busy_seconds_[c]);
    }
    // Untouched cores keep their base times: the largest is the first
    // untouched top-k entry's, or needs a scan when all are touched.
    std::size_t i = 0;
    while (i < ii_top_count_ && touched_mark_[ii_top_[i]] != 0) ++i;
    if (i < ii_top_count_)
        max_seconds = std::max(max_seconds, base_busy_seconds_[ii_top_[i]]);
    else
        for (std::size_t c = 0; c < cores_; ++c)
            if (touched_mark_[c] == 0) max_seconds = std::max(max_seconds, base_busy_seconds_[c]);
    staged_ii_ = max_seconds / batches_;
}

void EvalContext::reset_touched() {
    for (std::size_t i = 0; i < touched_count_; ++i) {
        const CoreId c = touched_[i];
        touched_mark_[c] = 0;
        busy_seconds_[c] = base_busy_seconds_[c];
    }
    touched_count_ = 0;
}

// The candidate's register unions, recomputed only for the cores whose
// task sets changed (each distinct core once).
void EvalContext::stage_unions(const NeighborOp& op) {
    const CoreId* base_raw = base_.raw().data();
    std::copy(base_bits_.begin(), base_bits_.end(), register_bits_.begin());
    const CoreId changed[] = {base_raw[op.a], op.core_a, base_raw[op.b], op.core_b};
    for (std::size_t i = 0; i < 4; ++i)
        if (std::find(changed, changed + i, changed[i]) == changed + i)
            register_bits_[changed[i]] = core_union_bits(changed[i], op);
}

// Core c's eq. (8) register bits in the candidate `op` over the base: the
// union of the rows of c's base tasks that stay on c and of the op's
// tasks that move onto it. Unions are set algebra, so this equals the
// full recompute; the rows are fixed-width words, so each OR is a
// contiguous word loop.
std::uint64_t EvalContext::core_union_bits(CoreId c, const NeighborOp& op) {
    const CoreId* base_raw = base_.raw().data();
    std::fill(scratch_words_.begin(), scratch_words_.end(), std::uint64_t{0});
    auto or_task_row = [&](TaskId t) {
        const std::uint64_t* src = plan_->reg_words.data() + t * words_;
        for (std::size_t w = 0; w < words_; ++w) scratch_words_[w] |= src[w];
    };
    for (std::size_t i = core_task_offsets_[c]; i < core_task_offsets_[c + 1]; ++i)
        if (op.core_of(base_raw, core_task_ids_[i]) == c) or_task_row(core_task_ids_[i]);
    if (!op.none() && op.core_a == c && base_raw[op.a] != c) or_task_row(op.a);
    if (op.b != op.a && op.core_b == c && base_raw[op.b] != c) or_task_row(op.b);
    return weighted_bits(scratch_words_.data());
}

// Replay the schedule suffix and return the candidate's latency.
double EvalContext::replay_suffix(const NeighborOp& op, std::size_t suffix_pos) {
    ++stats_.incremental_evals;
    const EvalPlan& plan = *plan_;
    const CoreId* base_raw = base_.raw().data();

    // Restore the timeline state as of `suffix_pos` (every placement
    // before it is provably identical under the op) by undoing the
    // base's placements from the last back to `suffix_pos`, then replay
    // only the suffix with the candidate core lookup.
    std::copy(base_core_free_.begin(), base_core_free_.end(), core_free_.begin());
    for (std::size_t q = n_; q-- > suffix_pos;)
        core_free_[base_raw[plan.order[q]]] = base_free_log_[q];
    for (std::size_t q = suffix_pos; q < n_; ++q) {
        const TaskId w = plan.order[q];
        double ready = 0.0;
        for (std::size_t i = plan.in_begin[w]; i < plan.in_begin[w + 1]; ++i) {
            const std::size_t k = plan.in_edges[i];
            if (plan.pos[plan.edge_src[k]] < suffix_pos) ready = std::max(ready, base_arrival_[k]);
        }
        data_ready_[w] = ready;
    }
    // The prefix's finish times are the base's, so its latency share is
    // the recorded prefix maximum.
    return place<false>(op, suffix_pos, base_latency_prefix_[suffix_pos]);
}

// List-schedule placements `from`.. of the candidate `op` from the
// current timeline state and return the latency. The latency is the
// maximum finish time; max is exact, so taking it in placement order
// equals the scheduler's id-order scan. Each placement logs its
// timeline state: the full pass into the base arrays, with its
// whole-run busy cycles (eq. 7 attribution; integer sums are exact in
// any order), a replay into the shadow arrays accept() promotes.
template <bool Full>
double EvalContext::place(const NeighborOp& op, std::size_t from, double latency) {
    const EvalPlan& plan = *plan_;
    const CoreId* base_raw = base_.raw().data();
    double* prefix_log = (Full ? base_latency_prefix_ : shadow_latency_prefix_).data();
    double* arrival_log = (Full ? base_arrival_ : shadow_arrival_).data();
    double* free_log = (Full ? base_free_log_ : shadow_free_log_).data();
    for (std::size_t q = from; q < n_; ++q) {
        prefix_log[q] = latency;
        const TaskId w = plan.order[q];
        const CoreId core = op.core_of(base_raw, w);
        const double start = std::max(core_free_[core], data_ready_[w]);
        const double finish = start + exec_seconds_[w * cores_ + core];
        latency = std::max(latency, finish);
        if constexpr (Full) base_busy_[core] += plan.exec_cycles[w];
        double cursor = finish;
        for (std::size_t k = plan.out_begin[w]; k < plan.out_begin[w + 1]; ++k) {
            const TaskId dst = plan.edge_dst[k];
            double arrival = finish;
            if (op.core_of(base_raw, dst) != core) {
                cursor += comm_seconds_[k * cores_ + core];
                arrival = cursor;
                if constexpr (Full) base_busy_[core] += plan.comm_cycles[k];
            }
            arrival_log[k] = arrival;
            data_ready_[dst] = std::max(data_ready_[dst], arrival);
        }
        free_log[q] = core_free_[core]; // undone by replay_suffix
        core_free_[core] = cursor;
    }
    return latency;
}

const DesignMetrics* EvalContext::memo_find(std::uint64_t hash, const NeighborOp& op) const {
    const std::size_t i = hash & (memo_.size() - 1);
    const MemoSlot& slot = memo_[i];
    if (slot.epoch != memo_epoch_ || slot.hash != hash) return nullptr;
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
    if (slot.epoch != memo_epoch_) ++stats_.memo_entries;
    slot = MemoSlot{hash, memo_epoch_, metrics};
    CoreId* key = memo_keys_.data() + i * n_;
    std::copy_n(base_.raw().data(), n_, key);
    if (!op.none()) {
        key[op.b] = op.core_b;
        key[op.a] = op.core_a; // after b: `a` wins when a == b, as in core_of
    }
}

} // namespace seamap
