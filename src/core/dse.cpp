#include "core/dse.h"

#include "core/dse_checkpoint.h"
#include "core/initial_mapping.h"
#include "core/lazy_scaling_queue.h"
#include "core/observer.h"
#include "core/scaling_bounds.h"
#include "core/search_strategy.h"
#include "util/error.h"
#include "util/float_compare.h"
#include "util/parallel.h"
#include "util/rng.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace seamap {

namespace {

/// Relative power window within which designs count as "equal power"
/// for the step-3 Gamma tie-break.
constexpr double k_power_tie_tolerance = 5e-3;

/// The paper's step-3 selection rule — minimum power, fewer expected
/// SEUs within the relative power tie window — applied to the sorted
/// Pareto front. On the front the rule is a pure function of the point
/// set (no evaluation-order sensitivity), which is what makes it
/// invariant under dominance pruning: pruned designs never reach a
/// front.
std::optional<DsePoint> select_best(const std::vector<DsePoint>& front) {
    if (front.empty()) return std::nullopt;
    const DsePoint* best = &front.front();
    for (std::size_t i = 1; i < front.size(); ++i) {
        const DsePoint& candidate = front[i];
        if (within_relative_tie(candidate.metrics.power_mw, best->metrics.power_mw,
                                k_power_tie_tolerance) &&
            candidate.metrics.gamma < best->metrics.gamma)
            best = &candidate;
    }
    return *best;
}

/// How far the lazy producer may run ahead of the replayed prefix, in
/// pop-order slots. The pop-time disposal decision for slot p consults
/// the replay front of exactly the first p - k_disposal_window slots —
/// a prefix that is fully decided by the time the producer needs it —
/// so which slots get searches submitted (scalings_emitted) is a pure
/// function of the problem at every thread count, while still keeping
/// up to a window of searches in flight. Thread-count *independent* on
/// purpose: scaling it with num_threads would make emission counts
/// differ between runs. 64 comfortably feeds any sane worker count and
/// keeps at most a window of popped case staircases alive at once.
constexpr std::size_t k_disposal_window = 64;

} // namespace

DesignSpaceExplorer::DesignSpaceExplorer(SerModel ser, ExposurePolicy policy)
    : ser_(std::move(ser)), policy_(policy) {}

DseResult DesignSpaceExplorer::explore(const TaskGraph& graph, const MpsocArchitecture& arch,
                                       double deadline_seconds,
                                       const DseParams& params) const {
    const OptimizedMappingStrategy strategy(params.search);
    return explore(graph, arch, deadline_seconds, params, strategy);
}

DseResult DesignSpaceExplorer::explore(const TaskGraph& graph, const MpsocArchitecture& arch,
                                       double deadline_seconds, const DseParams& params,
                                       const SearchStrategy& strategy,
                                       ProgressObserver* observer,
                                       const CancellationToken* cancel,
                                       DseCheckpointer* checkpoint) const {
    graph.validate();
    // One token funnels every stop source to the workers: the caller's
    // cancellation (chained as parent) and the explorer's own total
    // wall-clock budget (this token's deadline).
    CancellationToken stop(cancel);
    stop.set_budget_seconds(params.total_time_budget_seconds);

    // The scaling sequence is generated *lazily*, bound-sorted, by the
    // priority queue (core/lazy_scaling_queue.h) — the full sequence is
    // never materialized and, with pruning on, dominated slots are
    // disposed of at pop time before their searches are ever submitted.
    // Outcome storage is sparse for the same reason: feasible designs
    // land in a rank-keyed map (walked in enumeration order by the
    // final fold) and everything else folds into counters, so workers
    // may finish out of order yet the result stays independent of the
    // thread count (absent wall-clock cuts) while resident memory
    // tracks decided slots, not queue.total().
    const std::optional<ScalingBoundsModel> bounds_model =
        params.prune ? std::optional<ScalingBoundsModel>(std::in_place, graph, arch,
                                                         deadline_seconds, ser_, policy_)
                     : std::nullopt;
    LazyScalingQueue queue(graph, arch, deadline_seconds,
                           bounds_model ? &*bounds_model : nullptr);
    // The decided design of each *feasible* slot, keyed by enumeration
    // rank so the end-of-run fold walks feasible points in enumeration
    // order regardless of thread count. Pruned / gate-skipped /
    // searched-but-empty decisions carry no design and fold into plain
    // counters instead: resident memory tracks the slots actually
    // decided, never the full combination space (which at giant
    // instances — C(69,5) and up — would dwarf the frontier the lazy
    // enumeration is meant to bound).
    std::map<std::uint64_t, DsePoint> feasible_points; // under bb_mutex
    std::uint64_t skipped_count = 0;   ///< gate skips; producer thread only
    std::uint64_t pruned_count = 0;    ///< replay-pruned; under bb_mutex
    std::uint64_t no_design_count = 0; ///< searched, empty; under bb_mutex

    // Observer state: callbacks are serialized behind one mutex. The
    // streamed incumbent is the step-3 rule applied to the Pareto front
    // of everything completed so far, so its last value matches the
    // final best at any thread count (dominated — later pruned —
    // designs never move a front).
    std::mutex observer_mutex;
    std::vector<DsePoint> observed_points;
    DominanceFront observed_front; // strict-dominance filter for arrivals
    std::optional<DsePoint> observed_best;
    if (observer != nullptr) observer->on_explore_begin(queue.total());
    auto notify = [&](std::uint64_t rank, const ScalingVector& levels,
                      ScalingProgress::Outcome outcome, const DsePoint* point) {
        if (observer == nullptr) return;
        std::lock_guard lock(observer_mutex);
        ScalingProgress progress;
        progress.index = rank;
        progress.total = queue.total();
        progress.levels = levels;
        progress.outcome = outcome;
        if (point != nullptr) progress.metrics = point->metrics;
        observer->on_scaling_done(progress);
        if (point == nullptr) return;
        // A strictly dominated arrival can never enter any current or
        // future Pareto front (its dominator is retained), so the
        // fold's result cannot change: skip the O(n log n) recompute.
        // Keeps the serialized incumbent stream cheap when most
        // completions are dominated (the common case at scale).
        if (observed_front.dominates(
                ScalingBounds{point->metrics.power_mw, point->metrics.gamma}))
            return;
        observed_front.insert(point->metrics.power_mw, point->metrics.gamma);
        observed_points.push_back(*point);
        std::optional<DsePoint> incumbent = select_best(pareto_front_of(observed_points));
        const bool changed =
            incumbent &&
            (!observed_best || incumbent->levels != observed_best->levels ||
             incumbent->mapping != observed_best->mapping ||
             !exactly_equal(incumbent->metrics.power_mw, observed_best->metrics.power_mw) ||
             !exactly_equal(incumbent->metrics.gamma, observed_best->metrics.gamma));
        if (changed) {
            observed_best = std::move(incumbent);
            observer->on_incumbent(*observed_best);
        }
    };

    // --- shared branch-and-bound state --------------------------------
    // Where a slot is in its life. Every stage but `pending` is
    // complete, so the replay may decide the slot.
    enum class Stage : std::uint8_t {
        pending,       ///< emitted; waiting for a worker or in its hands
        restored,      ///< record replayed from a checkpoint; nothing runs
        disposed,      ///< dropped at pop time (lagged front)
        worker_pruned, ///< skipped by a worker against the replay front
        searched,      ///< the search ran to the end
        cut,           ///< a stop or a throwing search cut it: stays not_run
    };
    // One slot per gate-passing pop, in pop order. The deque is the
    // explorer's only work list: workers claim its pending slots in pop
    // order (std::deque: grows under the lock while workers hold
    // references to earlier slots).
    struct SearchSlot {
        std::uint64_t rank = 0; ///< enumeration index
        ScalingVector levels;
        /// The queue's case staircase; the slot is prunable only when
        /// every case is strictly dominated. Freed as soon as the
        /// replay decides the slot, so only a window of popped
        /// staircases is ever alive.
        std::vector<ScalingBounds> cases;
        /// The slot's outcome: restored from the snapshot, or the
        /// search's verdict (feasible / no_design) once it completes.
        /// The replay may still turn a searched slot's verdict into
        /// `pruned` (the search was speculative).
        DseSlotRecord record;
        Stage stage = Stage::pending;
        /// The replay's verdict, kept on the slot so the lagged
        /// disposal front can be advanced without a dense outcome
        /// array: set iff the replay decided this slot feasible.
        bool replay_feasible = false;
        double replay_power = 0.0;
        double replay_gamma = 0.0;
    };
    std::deque<SearchSlot> slots;
    std::mutex bb_mutex;
    std::condition_variable replay_cv; ///< signals `replayed` advances
    std::condition_variable work_cv;   ///< signals a new slot or the end of production
    std::size_t next_claim = 0;        ///< first slot no worker has looked at
    bool producing = true;
    // The incremental sequential replay: decides slots[0..replayed) in
    // pop order exactly as the end-of-run merge used to, maintaining
    // the front of surviving designs. Workers consult it for
    // opportunistic pruning (their view is a prefix of what the full
    // replay will know, so worker pruning stays a subset of replay
    // pruning) and the checkpoint records are its decisions verbatim.
    DominanceFront replay_front;
    std::size_t replayed = 0;
    // The *lagged* copy the producer's deterministic disposal uses:
    // advanced to exactly the prefix the window rule calls for, never
    // further, so disposal decisions are timing-independent.
    DominanceFront disposal_front;
    std::size_t disposal_advanced = 0;
    bool recording_stopped = false;
    bool bounds_unsound = false;
    /// The first failure on a worker: a throwing strategy, observer
    /// callback or snapshot write. Rethrown once the workers stop.
    std::exception_ptr first_error;
    std::uint64_t emitted = 0;

    // A slot is prunable when every powered-core case is strictly
    // dominated by some incumbent (different cases may fall to
    // different incumbents); an empty case list means the capacity
    // pre-filter could not even place the work — left to the search.
    auto front_prunes = [](const DominanceFront& front,
                           const std::vector<ScalingBounds>& cases) {
        if (cases.empty()) return false;
        return std::all_of(cases.begin(), cases.end(), [&](const ScalingBounds& bounds) {
            return front.dominates(bounds);
        });
    };

    const DseResumeState* resume =
        checkpoint != nullptr ? checkpoint->resume_state() : nullptr;
    const std::vector<DseSlotRecord>* records = resume != nullptr ? &resume->records : nullptr;
    std::size_t next_record = 0;

    // Advance the replay over the contiguous completed prefix. Called
    // with bb_mutex held. Mirrors the old end-of-run merge exactly: a
    // stop-cut slot stays not_run (and ends the recordable prefix —
    // nothing after it is replay-stable in a snapshot) but later slots
    // are still decided against the front without it. Restored and
    // fresh slots share one path: only the pruned-or-keep decision and
    // the snapshot append are skipped for restored ones.
    auto advance_replay = [&] {
        const bool advanced =
            replayed < slots.size() && slots[replayed].stage != Stage::pending;
        while (replayed < slots.size() && slots[replayed].stage != Stage::pending) {
            SearchSlot& slot = slots[replayed];
            DseSlotRecord& record = slot.record;
            bool decided = true;
            if (slot.stage != Stage::restored) {
                if (slot.stage == Stage::disposed ||
                    (params.prune && front_prunes(replay_front, slot.cases))) {
                    // A disposed slot's replay front is a superset of
                    // the lagged front that disposed it, so the replay
                    // verdict is already known (dominance is monotone).
                    record.kind = DseSlotRecord::Kind::pruned;
                } else if (slot.stage == Stage::cut) {
                    decided = false;
                } else if (slot.stage == Stage::worker_pruned) {
                    // Worker pruned a slot the replay keeps: the bounds
                    // are unsound. Surfaced after the workers stop.
                    bounds_unsound = true;
                    decided = false;
                }
                if (!decided) recording_stopped = true;
                if (checkpoint != nullptr && !recording_stopped) checkpoint->record(record);
            }
            if (decided) {
                switch (record.kind) {
                case DseSlotRecord::Kind::pruned:
                    ++pruned_count;
                    break;
                case DseSlotRecord::Kind::no_design:
                    ++no_design_count;
                    break;
                case DseSlotRecord::Kind::feasible:
                    slot.replay_feasible = true;
                    slot.replay_power = record.point.metrics.power_mw;
                    slot.replay_gamma = record.point.metrics.gamma;
                    replay_front.insert(slot.replay_power, slot.replay_gamma);
                    record.point.levels = slot.levels;
                    feasible_points.emplace(slot.rank, std::move(record.point));
                    break;
                }
            }
            // The replay is this slot's last reader: drop the bound
            // cases and any design, keep the cheap verdict.
            slot.cases = {};
            record.point = {};
            ++replayed;
        }
        if (advanced) replay_cv.notify_all();
    };

    // Advance the disposal front to exactly `prefix` decided slots
    // (never further). Called with bb_mutex held, prefix <= replayed.
    auto advance_disposal_to = [&](std::size_t prefix) {
        while (disposal_advanced < prefix) {
            const SearchSlot& slot = slots[disposal_advanced];
            if (slot.replay_feasible)
                disposal_front.insert(slot.replay_power, slot.replay_gamma);
            ++disposal_advanced;
        }
    };

    // Search one slot and complete it. The worker resolved `slot` under
    // bb_mutex when it claimed it (element references survive
    // emplace_back, but slots::operator[] walks the deque's node map,
    // which a concurrent emplace_back may be reallocating) and tested
    // it against the replay front there: `pruned`.
    auto run_search = [&](SearchSlot& slot, bool pruned) {
        Stage stage = Stage::cut;
        if (!stop.stop_requested()) {
            if (pruned) {
                stage = Stage::worker_pruned;
            } else {
                try {
                    const ScalingVector& levels = slot.levels;
                    EvaluationContext ctx{graph, arch, levels, SeuEstimator(ser_, policy_),
                                          deadline_seconds};
                    // The reusable per-slot evaluation engine this
                    // worker's search runs on: preallocated scratch,
                    // incremental rescheduling and the memo table all
                    // live here, private to this worker, so
                    // thread-count invariance is untouched.
                    EvalContext eval(ctx, params.eval);
                    const Mapping initial = initial_sea_mapping(ctx);
                    // Vary the search seed per scaling so repeated
                    // scalings do not replay the same random walk.
                    std::uint64_t level_hash = 0xcbf29ce484222325ULL;
                    for (ScalingLevel level : levels)
                        level_hash = splitmix64(level_hash ^ level);
                    const std::uint64_t seed = splitmix64(params.search.seed ^ level_hash);
                    LocalSearchResult found = strategy.search(eval, initial, seed, &stop);
                    if (found.found_feasible) {
                        slot.record.kind = DseSlotRecord::Kind::feasible;
                        slot.record.point.mapping = std::move(found.best_mapping);
                        slot.record.point.metrics = found.best_metrics;
                    } else {
                        slot.record.kind = DseSlotRecord::Kind::no_design;
                    }
                    stage = Stage::searched;
                } catch (...) {
                    // A throwing strategy must not strand the producer
                    // waiting on completions that will never come:
                    // capture the first error, stop the exploration
                    // cooperatively, and let the slot finish as
                    // not_run.
                    std::lock_guard lock(bb_mutex);
                    if (first_error == nullptr) first_error = std::current_exception();
                    stop.request_stop();
                }
            }
        }

        // Completion: decide the slot's stage and live outcome, and
        // extend the sequential replay. A stop landing while the search
        // ran may have cut it short, leaving a partial
        // (non-replay-faithful) result: discard it — the slot stays
        // not_run and a resume re-searches it in full. Prune skips
        // carry no search data and stay valid.
        ScalingProgress::Outcome live_outcome = ScalingProgress::Outcome::pruned;
        const DsePoint* live_point = nullptr;
        DsePoint found_point;
        {
            std::lock_guard lock(bb_mutex);
            if (stage == Stage::searched && stop.stop_requested()) stage = Stage::cut;
            slot.stage = stage;
            if (stage == Stage::searched) {
                if (slot.record.kind == DseSlotRecord::Kind::feasible) {
                    found_point.levels = slot.levels;
                    found_point.mapping = slot.record.point.mapping;
                    found_point.metrics = slot.record.point.metrics;
                    live_outcome = ScalingProgress::Outcome::feasible;
                    live_point = &found_point;
                } else {
                    live_outcome = ScalingProgress::Outcome::searched_no_design;
                }
            }
            advance_replay();
        }
        if (stage != Stage::cut) notify(slot.rank, slot.levels, live_outcome, live_point);
        if (checkpoint != nullptr) checkpoint->maybe_flush();
    };

    // One explorer worker: claims pending slots in pop order until
    // production has ended and every emitted slot is claimed. A failure
    // that escapes a slot's completion (an observer callback, a
    // snapshot write) is kept in first_error, and the worker keeps
    // draining.
    auto work = [&] {
        std::unique_lock lock(bb_mutex);
        for (;;) {
            work_cv.wait(lock, [&] {
                // Restored and disposed slots are complete when created.
                while (next_claim < slots.size() && slots[next_claim].stage != Stage::pending)
                    ++next_claim;
                return next_claim < slots.size() || !producing;
            });
            if (next_claim == slots.size()) return;
            SearchSlot& slot = slots[next_claim++];
            const bool pruned = params.prune && front_prunes(replay_front, slot.cases);
            lock.unlock();
            std::exception_ptr error;
            try {
                run_search(slot, pruned);
            } catch (...) {
                error = std::current_exception();
            }
            lock.lock();
            if (error != nullptr && first_error == nullptr) first_error = error;
        }
    };

    // Runs on every way out of production — the end of the queue, a
    // stop, or an exception (a checkpoint mismatch, a throwing
    // observer, a failed thread start) — before the workers join, so
    // they drain the emitted slots and return.
    auto end_production = [&] {
        std::lock_guard lock(bb_mutex);
        producing = false;
        work_cv.notify_all();
    };

    // --- produce + run ------------------------------------------------
    // The producer (this thread) pops slots from the lazy queue while
    // the workers run searches. For each gate-passing pop it takes the
    // case staircase the queue computed, waits until the replay covers
    // the disposal window's prefix, and either disposes of the slot
    // (provably dominated — counted pruned, never searched) or emits
    // it for the workers to claim.
    auto produce = [&] {
        while (!stop.stop_requested()) {
            std::optional<LazyScalingQueue::Slot> popped = queue.pop();
            if (!popped) break;
            const std::uint64_t rank = popped->rank;
            if (!popped->gate_passed) {
                // Gate skips are free: count and stream them right
                // here, ahead of any search. (Producer-only counter —
                // gate-skipped ranks never enter `slots`, so no other
                // thread ever touches them.)
                ++skipped_count;
                notify(rank, popped->levels, ScalingProgress::Outcome::skipped_infeasible,
                       nullptr);
                continue;
            }
            bool disposed = false;
            SearchSlot* slot_ptr = nullptr;
            {
                std::unique_lock lock(bb_mutex);
                const std::size_t pos = slots.size();
                const std::size_t need =
                    pos > k_disposal_window ? pos - k_disposal_window : 0;
                replay_cv.wait(lock,
                               [&] { return replayed >= need || stop.stop_requested(); });
                if (stop.stop_requested()) break;
                advance_disposal_to(need);
                if (params.prune) disposed = front_prunes(disposal_front, popped->cases);
                if (!disposed) ++emitted;
                const DseSlotRecord* record = nullptr;
                if (records != nullptr && next_record < records->size()) {
                    record = &(*records)[next_record];
                    if (record->combo != rank)
                        throw Error(ErrorCategory::checkpoint_mismatch,
                                    "checkpoint slot order diverges at decided slot " +
                                        std::to_string(next_record) +
                                        " (stored combination " +
                                        std::to_string(record->combo) + ", produced " +
                                        std::to_string(rank) + ")",
                                    checkpoint->path());
                    ++next_record;
                }
                slots.emplace_back();
                SearchSlot& slot = slots.back();
                slot_ptr = &slot;
                slot.rank = rank;
                slot.levels = std::move(popped->levels);
                if (record != nullptr) {
                    // Restored: the snapshot already holds this slot's
                    // replay decision; nothing runs.
                    slot.record = *record;
                    slot.stage = Stage::restored;
                    advance_replay();
                    continue;
                }
                slot.record.combo = rank;
                slot.cases = std::move(popped->cases);
                if (disposed) {
                    slot.stage = Stage::disposed;
                    advance_replay();
                }
            }
            if (disposed) {
                notify(rank, slot_ptr->levels, ScalingProgress::Outcome::pruned, nullptr);
                if (checkpoint != nullptr) checkpoint->maybe_flush();
                continue;
            }
            work_cv.notify_one();
        }
    };
    if (!stop.stop_requested()) {
        std::vector<std::jthread> workers; // joined at the end of this block
        try {
            const std::size_t worker_count = resolve_thread_count(params.num_threads);
            workers.reserve(worker_count);
            for (std::size_t w = 0; w < worker_count; ++w) workers.emplace_back(work);
            produce();
        } catch (...) {
            end_production();
            throw;
        }
        end_production();
    }
    {
        // Quiescent now: the workers completed every created slot
        // before they joined, so this sweeps the replay to the end.
        std::lock_guard lock(bb_mutex);
        advance_replay();
        if (first_error != nullptr) std::rethrow_exception(first_error);
    }
    // Persist whatever the run decided — on a stop this is the snapshot
    // a resume continues from; on completion it doubles as a memoized
    // result (a resume replays it without searching).
    if (checkpoint != nullptr) checkpoint->flush();
    if (bounds_unsound)
        throw std::logic_error(
            "DesignSpaceExplorer: worker pruned a slot the deterministic replay "
            "keeps — scaling bounds are unsound");
    if (records != nullptr && next_record < records->size() && !stop.stop_requested())
        throw Error(ErrorCategory::checkpoint_mismatch,
                    "checkpoint holds " + std::to_string(records->size()) +
                        " decided slots but this exploration produced only " +
                        std::to_string(next_record),
                    checkpoint->path());

    // Deterministic fold: the counters are order-independent sums and
    // the rank-keyed map iterates in ascending enumeration rank, so the
    // feasible point order is byte-identical to the old dense
    // rank-indexed sweep at any thread count.
    DseResult result;
    result.scalings_total = queue.total();
    result.scalings_emitted = emitted;
    result.scalings_skipped_infeasible = skipped_count;
    result.scalings_pruned = pruned_count;
    result.scalings_searched =
        no_design_count + static_cast<std::uint64_t>(feasible_points.size());
    result.scalings_enumerated = skipped_count + pruned_count + result.scalings_searched;
    for (auto& [rank, point] : feasible_points) {
        (void)rank;
        result.feasible_points.push_back(std::move(point));
    }

    // Step 3: iterative assessment — among feasible designs pick
    // minimum power, breaking near-ties by Gamma. Applied to the front,
    // where the rule is order-independent and prune-invariant.
    result.pareto_front = pareto_front_of(result.feasible_points);
    result.best = select_best(result.pareto_front);
    if (observer != nullptr) observer->on_explore_end(result);
    return result;
}

std::vector<DsePoint> pareto_front_of(const std::vector<DsePoint>& points) {
    // Sort-and-sweep over the 2-D (power, gamma) objectives: sorting by
    // the same total order the output uses anyway, a point is dominated
    // iff the minimum gamma among strictly-cheaper points is <= its own
    // (strictness then comes from the power gap) or a same-power point
    // has strictly smaller gamma. O(n log n) against the former
    // all-pairs scan, with byte-identical output: survivors are the
    // same set, already in the output's total order.
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t ia, std::size_t ib) {
        const DsePoint& a = points[ia];
        const DsePoint& b = points[ib];
        if (!exactly_equal(a.metrics.power_mw, b.metrics.power_mw))
            return a.metrics.power_mw < b.metrics.power_mw;
        if (!exactly_equal(a.metrics.gamma, b.metrics.gamma))
            return a.metrics.gamma < b.metrics.gamma;
        if (a.levels != b.levels) return a.levels < b.levels;
        return a.mapping.raw() < b.mapping.raw();
    });

    std::vector<DsePoint> front;
    double cheaper_min_gamma = std::numeric_limits<double>::infinity();
    for (std::size_t group = 0; group < order.size();) {
        std::size_t group_end = group;
        const double group_power = points[order[group]].metrics.power_mw;
        while (group_end < order.size() &&
               exactly_equal(points[order[group_end]].metrics.power_mw, group_power))
            ++group_end;
        // Within an equal-power group the sort put minimum gamma first.
        const double group_min_gamma = points[order[group]].metrics.gamma;
        for (std::size_t k = group; k < group_end; ++k) {
            const DsePoint& candidate = points[order[k]];
            const bool dominated = cheaper_min_gamma <= candidate.metrics.gamma ||
                                   group_min_gamma < candidate.metrics.gamma;
            if (!dominated) front.push_back(candidate);
        }
        cheaper_min_gamma = std::min(cheaper_min_gamma, group_min_gamma);
        group = group_end;
    }

    // Drop near-duplicates on (P, Gamma) so the front is a clean
    // staircase; exact float equality would keep points that differ
    // only in the last ulp of an otherwise identical design. Each
    // point is compared against the last *kept* point (not std::unique,
    // whose behavior is unspecified for non-transitive predicates).
    std::vector<DsePoint> deduped;
    for (DsePoint& point : front) {
        if (!deduped.empty() &&
            nearly_equal(deduped.back().metrics.power_mw, point.metrics.power_mw) &&
            nearly_equal(deduped.back().metrics.gamma, point.metrics.gamma))
            continue;
        deduped.push_back(std::move(point));
    }
    return deduped;
}

} // namespace seamap
