#include "core/dse.h"

#include "core/dse_checkpoint.h"
#include "core/eval_context.h"
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
#include <memory>
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

/// Where a slot is in its life. Every stage but `pending` is complete,
/// so the replay may decide the slot.
enum class Stage : std::uint8_t {
    pending,       ///< emitted; waiting for a worker or in its hands
    restored,      ///< record replayed from a checkpoint; nothing runs
    disposed,      ///< dropped at pop time (lagged front)
    worker_pruned, ///< skipped by a worker against the replay front
    searched,      ///< the search ran to the end
    cut,           ///< a stop or a throwing search cut it: stays not_run
    decided,       ///< the replay folded `record` into the verdicts
};

/// One gate-passing pop.
struct SearchSlot {
    std::uint64_t rank = 0; ///< enumeration index
    ScalingVector levels;
    /// The queue's case staircase; the slot is prunable only when
    /// every case is strictly dominated. Freed as soon as the replay
    /// decides the slot, so only a window of popped staircases is ever
    /// alive.
    std::vector<ScalingBounds> cases;
    /// The slot's outcome: restored from the snapshot, or the search's
    /// verdict (feasible / no_design) once it completes. The replay may
    /// still turn a searched slot's verdict into `pruned` (the search
    /// was speculative). Only a decided feasible slot keeps its design.
    DseSlotRecord record;
    Stage stage = Stage::pending;
};

/// A slot is prunable when every powered-core case is strictly
/// dominated by some incumbent (different cases may fall to different
/// incumbents); an empty case list means the capacity pre-filter could
/// not even place the work — left to the search.
bool front_prunes(const DominanceFront& front, const std::vector<ScalingBounds>& cases) {
    if (cases.empty()) return false;
    return std::all_of(cases.begin(), cases.end(),
                       [&](const ScalingBounds& bounds) { return front.dominates(bounds); });
}

/// The sequential replay: decides the gate-passing slots in pop order,
/// whatever order the workers complete them in, so every verdict is a
/// pure function of the problem at any thread count. The only owner of
/// the slots' verdicts: it keeps the replay front workers prune
/// against, the lagged disposal front the producer disposes with, the
/// resume records and the checkpoint records, and it folds the
/// counters and feasible points. Not thread-safe: every call holds the
/// explorer's bb_mutex.
class ReplayLedger {
public:
    ReplayLedger(bool prune, DseCheckpointer* checkpoint)
        : prune_(prune), checkpoint_(checkpoint),
          resume_(checkpoint != nullptr ? checkpoint->resume_state() : nullptr) {}

    std::size_t size() const { return slots_.size(); }
    /// References survive admit(); the lookup itself needs bb_mutex.
    SearchSlot& slot(std::size_t pos) { return slots_[pos]; }
    /// Slots [0, replayed()) are decided (or stay not_run).
    std::size_t replayed() const { return replayed_; }
    /// The prefix the next admitted slot's disposal test consults; the
    /// producer waits until replayed() covers it.
    std::size_t disposal_prefix() const {
        return slots_.size() > k_disposal_window ? slots_.size() - k_disposal_window : 0;
    }

    /// Appends a gate passer once replayed() >= disposal_prefix() and
    /// returns how it entered: restored, disposed or pending. Every
    /// slot takes the disposal test, restored ones too, so
    /// scalings_emitted does not depend on the resume point. Throws
    /// checkpoint_mismatch when the snapshot's next record is another
    /// combination.
    Stage admit(LazyScalingQueue::Slot& popped) {
        // The lagged front: advanced to exactly the window's prefix,
        // never further, so disposal decisions are timing-independent.
        for (const std::size_t prefix = disposal_prefix(); disposal_advanced_ < prefix;
             ++disposal_advanced_) {
            const SearchSlot& done = slots_[disposal_advanced_];
            const DesignMetrics& metrics = done.record.point.metrics;
            if (done.stage == Stage::decided &&
                done.record.kind == DseSlotRecord::Kind::feasible)
                disposal_front_.insert(metrics.power_mw, metrics.gamma);
        }
        const bool disposed = prune_ && front_prunes(disposal_front_, popped.cases);
        if (!disposed) ++emitted_;
        const DseSlotRecord* restored = nullptr;
        if (resume_ != nullptr && next_record_ < resume_->records.size()) {
            restored = &resume_->records[next_record_];
            if (restored->combo != popped.rank)
                throw Error(ErrorCategory::checkpoint_mismatch,
                            "checkpoint slot order diverges at decided slot " +
                                std::to_string(next_record_) + " (stored combination " +
                                std::to_string(restored->combo) + ", produced " +
                                std::to_string(popped.rank) + ")",
                            checkpoint_->path());
            ++next_record_;
        }
        SearchSlot& slot = slots_.emplace_back();
        slot.rank = popped.rank;
        slot.levels = std::move(popped.levels);
        if (restored != nullptr) {
            // The snapshot already holds this slot's replay decision.
            slot.record = *restored;
            slot.stage = Stage::restored;
        } else {
            slot.record.combo = popped.rank;
            slot.cases = std::move(popped.cases);
            slot.stage = disposed ? Stage::disposed : Stage::pending;
        }
        const Stage entered = slot.stage;
        advance();
        return entered;
    }

    /// The worker's speculative test. The replay front covers a prefix
    /// of what the replay will know when it decides `slot`, so a slot
    /// pruned here is pruned by the replay too.
    bool prunes_now(const SearchSlot& slot) const {
        return prune_ && front_prunes(replay_front_, slot.cases);
    }

    /// Completes a claimed slot; true when the replay advanced.
    bool complete(SearchSlot& slot, Stage stage) {
        slot.stage = stage;
        return advance();
    }

    /// Once the workers have joined and the snapshot is flushed: checks
    /// the run, then folds the verdicts into `result` with the feasible
    /// points in ascending enumeration rank. `stopped` runs may leave
    /// resume records unconsumed.
    void fold(DseResult& result, bool stopped) {
        if (unsound_)
            throw std::logic_error(
                "DesignSpaceExplorer: worker pruned a slot the deterministic replay "
                "keeps — DominanceFront dominance stopped being monotone under insertion");
        if (resume_ != nullptr && next_record_ < resume_->records.size() && !stopped)
            throw Error(ErrorCategory::checkpoint_mismatch,
                        "checkpoint holds " + std::to_string(resume_->records.size()) +
                            " decided slots but this exploration produced only " +
                            std::to_string(next_record_),
                        checkpoint_->path());
        std::vector<SearchSlot*> feasible;
        for (SearchSlot& slot : slots_) {
            if (slot.stage != Stage::decided) continue;
            const DseSlotRecord::Kind kind = slot.record.kind;
            ++(kind == DseSlotRecord::Kind::pruned ? result.scalings_pruned
                                                   : result.scalings_searched);
            if (kind == DseSlotRecord::Kind::feasible) feasible.push_back(&slot);
        }
        std::sort(feasible.begin(), feasible.end(),
                  [](const SearchSlot* a, const SearchSlot* b) { return a->rank < b->rank; });
        result.scalings_emitted = emitted_;
        for (SearchSlot* slot : feasible) {
            slot->record.point.levels = std::move(slot->levels);
            result.feasible_points.push_back(std::move(slot->record.point));
        }
    }

private:
    /// Decides the contiguous completed prefix. A cut slot stays
    /// not_run and ends the recordable prefix (nothing after it is
    /// replay-stable in a snapshot), but later slots are still decided
    /// against the front without it. A restored slot's decision is its
    /// record, already in the snapshot.
    bool advance() {
        const std::size_t from = replayed_;
        for (; replayed_ < slots_.size() && slots_[replayed_].stage != Stage::pending;
             ++replayed_) {
            SearchSlot& slot = slots_[replayed_];
            DseSlotRecord& record = slot.record;
            bool decided = true;
            if (slot.stage != Stage::restored) {
                if (slot.stage == Stage::disposed ||
                    (prune_ && front_prunes(replay_front_, slot.cases))) {
                    // A disposed slot's replay front is a superset of
                    // the lagged front that disposed it, so the replay
                    // verdict is already known (dominance is monotone).
                    record.kind = DseSlotRecord::Kind::pruned;
                } else if (slot.stage == Stage::cut) {
                    decided = false;
                } else if (slot.stage == Stage::worker_pruned) {
                    // Surfaced by fold() once the workers stop.
                    unsound_ = true;
                    decided = false;
                }
                if (!decided) recording_stopped_ = true;
                if (checkpoint_ != nullptr && !recording_stopped_) checkpoint_->record(record);
            }
            if (decided) {
                slot.stage = Stage::decided;
                if (record.kind == DseSlotRecord::Kind::feasible)
                    replay_front_.insert(record.point.metrics.power_mw,
                                         record.point.metrics.gamma);
            }
            // The replay is the last reader of the cases and of any
            // design but a decided feasible one.
            slot.cases = {};
            if (slot.stage != Stage::decided || record.kind != DseSlotRecord::Kind::feasible)
                record.point = {};
        }
        return replayed_ != from;
    }

    bool prune_;
    DseCheckpointer* checkpoint_;
    const DseResumeState* resume_; ///< null unless resuming
    std::size_t next_record_ = 0;  ///< resume records consumed
    /// One slot per gate-passing pop, in pop order (std::deque: grows
    /// while workers hold references to earlier slots).
    std::deque<SearchSlot> slots_;
    DominanceFront replay_front_; ///< survivors of slots [0, replayed_)
    std::size_t replayed_ = 0;
    DominanceFront disposal_front_; ///< survivors of slots [0, disposal_advanced_)
    std::size_t disposal_advanced_ = 0;
    std::uint64_t emitted_ = 0;
    bool recording_stopped_ = false;
    bool unsound_ = false;
};

} // namespace

DesignSpaceExplorer::DesignSpaceExplorer(SerModel ser, ExposurePolicy policy)
    : ser_(std::move(ser)), policy_(policy) {}

DseResult DesignSpaceExplorer::explore(const TaskGraph& graph, const MpsocArchitecture& arch,
                                       double deadline_seconds, const DseParams& params,
                                       const SearchStrategy& strategy,
                                       ProgressObserver* observer,
                                       const CancellationToken* cancel,
                                       DseCheckpointer* checkpoint) const {
    graph.validate();
    // One token funnels every stop source to the workers: the caller's
    // cancellation and deadline (chained as parent) and a failed
    // search's request_stop().
    CancellationToken stop(cancel);

    // The scaling sequence is generated *lazily*, bound-sorted, by the
    // priority queue (core/lazy_scaling_queue.h) — the full sequence is
    // never materialized and, with pruning on, dominated slots are
    // disposed of at pop time before their searches are ever submitted.
    // Only gate passers enter the ledger, so resident memory tracks
    // decided slots, never the full combination space.
    const std::optional<ScalingBoundsModel> bounds_model =
        params.prune ? std::optional<ScalingBoundsModel>(std::in_place, graph, arch,
                                                         deadline_seconds, ser_, policy_)
                     : std::nullopt;
    LazyScalingQueue queue(graph, arch, deadline_seconds,
                           bounds_model ? &*bounds_model : nullptr);
    std::uint64_t skipped_count = 0; ///< gate skips; producer thread only

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

    // --- shared state, all under bb_mutex ----------------------------
    ReplayLedger ledger(params.prune, checkpoint);
    std::mutex bb_mutex;
    std::condition_variable replay_cv; ///< signals ledger.replayed() advances
    std::condition_variable work_cv;   ///< signals a new slot or the end of production
    std::size_t next_claim = 0;        ///< first slot no worker has looked at
    bool producing = true;
    /// The first failure on a worker: a throwing strategy, observer
    /// callback or snapshot write. Rethrown once the workers stop.
    std::exception_ptr first_error;

    // The graph-only half of every worker's evaluation engine.
    const auto plan = std::make_shared<const EvalPlan>(graph, arch.core_count());
    // Search one slot on the worker's `eval` and complete it. The worker
    // resolved `slot` under bb_mutex when it claimed it and ran the
    // ledger's speculative prune test there: `pruned`.
    auto run_search = [&](SearchSlot& slot, bool pruned, std::optional<EvalContext>& eval) {
        Stage stage = Stage::cut;
        if (!stop.stop_requested()) {
            if (pruned) {
                stage = Stage::worker_pruned;
            } else {
                try {
                    const ScalingVector& levels = slot.levels;
                    EvaluationContext ctx{graph, arch, levels, SeuEstimator(ser_, policy_),
                                          deadline_seconds};
                    // Private to the worker, and a rebound context acts
                    // exactly like a fresh one: thread-count invariant.
                    if (!eval) eval.emplace(plan);
                    eval->rebind(ctx);
                    const Mapping initial = initial_sea_mapping(ctx);
                    // Vary the search seed per scaling so repeated
                    // scalings do not replay the same random walk.
                    std::uint64_t level_hash = 0xcbf29ce484222325ULL;
                    for (ScalingLevel level : levels)
                        level_hash = splitmix64(level_hash ^ level);
                    const std::uint64_t seed = splitmix64(params.search.seed ^ level_hash);
                    LocalSearchResult found = strategy.search(*eval, initial, seed, &stop);
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

        // Completion: take the live outcome, then hand the slot to the
        // ledger. A stop landing while the search ran may have cut it
        // short, leaving a partial (non-replay-faithful) result:
        // discard it — the slot stays not_run and a resume re-searches
        // it in full. Prune skips carry no search data and stay valid.
        ScalingProgress::Outcome live_outcome = ScalingProgress::Outcome::pruned;
        const DsePoint* live_point = nullptr;
        DsePoint found_point;
        {
            std::lock_guard lock(bb_mutex);
            if (stage == Stage::searched && stop.stop_requested()) stage = Stage::cut;
            if (stage == Stage::searched) {
                if (slot.record.kind == DseSlotRecord::Kind::feasible) {
                    found_point = slot.record.point;
                    found_point.levels = slot.levels;
                    live_outcome = ScalingProgress::Outcome::feasible;
                    live_point = &found_point;
                } else {
                    live_outcome = ScalingProgress::Outcome::searched_no_design;
                }
            }
            if (ledger.complete(slot, stage)) replay_cv.notify_all();
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
        std::optional<EvalContext> eval; // built on this worker's first search
        std::unique_lock lock(bb_mutex);
        for (;;) {
            work_cv.wait(lock, [&] {
                // Restored and disposed slots are complete when created.
                while (next_claim < ledger.size() &&
                       ledger.slot(next_claim).stage != Stage::pending)
                    ++next_claim;
                return next_claim < ledger.size() || !producing;
            });
            if (next_claim == ledger.size()) return;
            SearchSlot& slot = ledger.slot(next_claim++);
            const bool pruned = ledger.prunes_now(slot);
            lock.unlock();
            std::exception_ptr error;
            try {
                run_search(slot, pruned, eval);
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
    // the workers run searches. Each gate-passing pop waits until the
    // replay covers the disposal window's prefix, then enters the
    // ledger: restored, disposed (provably dominated — counted pruned,
    // never searched) or emitted for the workers to claim.
    auto produce = [&] {
        while (!stop.stop_requested()) {
            std::optional<LazyScalingQueue::Slot> popped = queue.pop();
            if (!popped) break;
            if (!popped->gate_passed) {
                // Gate skips never enter the ledger: count and stream
                // them right here, ahead of any search.
                ++skipped_count;
                notify(popped->rank, popped->levels,
                       ScalingProgress::Outcome::skipped_infeasible, nullptr);
                continue;
            }
            Stage entered = Stage::pending;
            const SearchSlot* slot = nullptr;
            {
                std::unique_lock lock(bb_mutex);
                replay_cv.wait(lock, [&] {
                    return ledger.replayed() >= ledger.disposal_prefix() ||
                           stop.stop_requested();
                });
                if (stop.stop_requested()) break;
                entered = ledger.admit(*popped);
                slot = &ledger.slot(ledger.size() - 1);
            }
            if (entered == Stage::pending) {
                work_cv.notify_one();
            } else if (entered == Stage::disposed) {
                notify(slot->rank, slot->levels, ScalingProgress::Outcome::pruned, nullptr);
                if (checkpoint != nullptr) checkpoint->maybe_flush();
            }
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
    // Quiescent now: the workers completed every created slot before
    // they joined, and each completion advanced the replay.
    if (first_error != nullptr) std::rethrow_exception(first_error);
    // Persist whatever the run decided — on a stop this is the snapshot
    // a resume continues from; on completion it doubles as a memoized
    // result (a resume replays it without searching).
    if (checkpoint != nullptr) checkpoint->flush();

    DseResult result;
    result.scalings_total = queue.total();
    result.scalings_skipped_infeasible = skipped_count;
    ledger.fold(result, stop.stop_requested());
    result.scalings_enumerated =
        skipped_count + result.scalings_pruned + result.scalings_searched;

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
