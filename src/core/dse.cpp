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
    cut,           ///< a stop cut it: stays not_run
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
    /// The slot's outcome: restored from the journal, or the search's
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

/// A slot's search seed, varied per scaling so repeated scalings do not
/// replay the same random walk; a pure function of levels and base.
std::uint64_t slot_seed(const ScalingVector& levels, std::uint64_t base) {
    std::uint64_t level_hash = 0xcbf29ce484222325ULL;
    for (ScalingLevel level : levels) level_hash = splitmix64(level_hash ^ level);
    return splitmix64(base ^ level_hash);
}

/// The sequential replay: decides the gate-passing slots in pop order,
/// whatever order the workers complete them in, so every verdict is a
/// pure function of the problem at any thread count. The only owner of
/// the slots' verdicts: it keeps the replay front workers prune
/// against, the lagged disposal front the producer disposes with, the
/// claim cursor, the resume records and the journal records, and it
/// folds the counters and feasible points. Not thread-safe: every call
/// holds ExploreRun::bb_mutex.
class ReplayLedger {
public:
    ReplayLedger(bool prune, DseCheckpointer* checkpoint)
        : prune_(prune), checkpoint_(checkpoint),
          resume_(checkpoint != nullptr ? checkpoint->resume_state() : nullptr) {}

    /// True once the replay covers the prefix the next admitted slot's
    /// disposal test consults; the producer waits for it.
    bool window_open() const { return replayed_ >= disposal_prefix(); }

    /// Appends a gate passer once window_open() and returns it with how
    /// it entered: restored, disposed or pending. Every slot takes the
    /// disposal test, restored ones too, so scalings_emitted does not
    /// depend on the resume point. Throws checkpoint_mismatch when the
    /// journal's next record is another combination.
    std::pair<const SearchSlot&, Stage> admit(LazyScalingQueue::Slot& popped) {
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
            // The journal already holds this slot's replay decision.
            slot.record = *restored;
            slot.stage = Stage::restored;
        } else {
            slot.record.combo = popped.rank;
            slot.cases = std::move(popped.cases);
            slot.stage = disposed ? Stage::disposed : Stage::pending;
        }
        const Stage entered = slot.stage;
        if (entered == Stage::pending) ++unclaimed_;
        advance();
        return {slot, entered};
    }

    /// True when an emitted slot waits for a worker; a side-effect-free
    /// wait predicate.
    bool claimable() const { return unclaimed_ > 0; }
    /// Hands the next emitted slot, in pop order, to a worker; null
    /// when none waits. The reference survives later admits.
    SearchSlot* claim() {
        if (unclaimed_ == 0) return nullptr;
        --unclaimed_;
        while (slots_[next_claim_].stage != Stage::pending) ++next_claim_;
        return &slots_[next_claim_++];
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

    /// Once the workers have joined and the journal is flushed: checks
    /// the run, then folds the verdicts into `result`, which already
    /// holds the gate skips, with the feasible points in ascending
    /// enumeration rank. `stopped` runs may leave resume records
    /// unconsumed.
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
        result.scalings_enumerated = result.scalings_skipped_infeasible +
                                     result.scalings_pruned + result.scalings_searched;
        for (SearchSlot* slot : feasible) {
            slot->record.point.levels = std::move(slot->levels);
            result.feasible_points.push_back(std::move(slot->record.point));
        }
    }

private:
    std::size_t disposal_prefix() const {
        return slots_.size() > k_disposal_window ? slots_.size() - k_disposal_window : 0;
    }

    /// Decides the contiguous completed prefix. A cut slot stays
    /// not_run and ends the recordable prefix (nothing after it is
    /// replay-stable in the journal), but later slots are still decided
    /// against the front without it. A restored slot's decision is its
    /// record, already in the journal.
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
    std::size_t next_claim_ = 0; ///< no slot before it waits for a worker
    std::size_t unclaimed_ = 0;  ///< pending slots no worker has claimed
    std::uint64_t emitted_ = 0;
    bool recording_stopped_ = false;
    bool unsound_ = false;
};

/// What one explore() run shares between its producer (the calling
/// thread) and its workers. The lock rules, stated once: bb_mutex guards
/// the ledger, `producing` and `first_error`. A worker takes it once to
/// claim a slot and once to complete it, the producer once per gate
/// passer; searches, observer callbacks and journal flushes run outside
/// it. The producer waits on replay_cv for the ledger's window or a
/// stop, workers on work_cv for a claimable slot or the end of
/// production. `stop` funnels every stop source to the searches: the
/// caller's token and deadline (chained as parent) and fail().
struct ExploreRun {
    ExploreRun(bool prune, DseCheckpointer* journal, const CancellationToken* cancel)
        : stop(cancel), checkpoint(journal), ledger(prune, journal) {}

    /// The one failure path, from any thread: keeps the first error and
    /// stops the run, so production ends and the workers cut what is
    /// left. explore() rethrows it once the workers join.
    void fail(std::exception_ptr error) {
        std::lock_guard lock(bb_mutex);
        if (first_error == nullptr) first_error = std::move(error);
        stop.request_stop();
        replay_cv.notify_all();
    }
    /// Runs `body`, routing whatever it throws to fail().
    template <class Body>
    void guard(Body&& body) try {
        body();
    } catch (...) {
        fail(std::current_exception());
    }
    /// Lets the workers claim what is left and return.
    void end_production() {
        std::lock_guard lock(bb_mutex);
        producing = false;
        work_cv.notify_all();
    }

    CancellationToken stop;
    DseCheckpointer* const checkpoint;
    std::mutex bb_mutex;
    std::condition_variable replay_cv; ///< signals the replay advancing
    std::condition_variable work_cv;   ///< signals a new slot or the end of production
    bool producing = true;
    std::exception_ptr first_error; ///< from a strategy, observer, journal or producer
    ReplayLedger ledger;
};

/// Streams per-slot progress and incumbents to the caller's observer,
/// if any, serialized behind its own mutex. The streamed incumbent is
/// the step-3 rule applied to the Pareto front of everything completed
/// so far, so its last value matches the final best at any thread
/// count (dominated — later pruned — designs never move a front).
struct ObserverRelay {
    ProgressObserver* observer;
    std::size_t total;
    std::mutex observer_mutex{};
    std::vector<DsePoint> observed_points{};
    DominanceFront observed_front{}; // strict-dominance filter for arrivals
    std::optional<DsePoint> observed_best{};

    void done(std::size_t rank, const ScalingVector& levels,
              ScalingProgress::Outcome outcome, const DsePoint* point = nullptr) {
        if (observer == nullptr) return;
        std::lock_guard lock(observer_mutex);
        observer->on_scaling_done(ScalingProgress{
            rank, total, levels, outcome, point != nullptr ? point->metrics : DesignMetrics{}});
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
        // Each slot streams once, so its levels name the design.
        if (incumbent && (!observed_best || incumbent->levels != observed_best->levels)) {
            observed_best = std::move(incumbent);
            observer->on_incumbent(*observed_best);
        }
    }
};

/// The producer, on explore()'s own thread: pops slots from the lazy
/// queue while the workers search. Each gate-passing pop waits until
/// the replay covers the disposal window's prefix, then enters the
/// ledger: restored, disposed (provably dominated — counted pruned,
/// never searched) or emitted for the workers to claim.
struct Producer {
    ExploreRun& run;
    LazyScalingQueue& queue;
    ObserverRelay& relay;
    std::uint64_t skipped = 0; ///< gate skips

    void produce() {
        while (!run.stop.stop_requested()) {
            std::optional<LazyScalingQueue::Slot> popped = queue.pop();
            if (!popped) return;
            if (!popped->gate_passed) {
                // Gate skips never enter the ledger: count and stream
                // them right here, ahead of any search.
                ++skipped;
                relay.done(popped->rank, popped->levels,
                           ScalingProgress::Outcome::skipped_infeasible);
                continue;
            }
            std::unique_lock lock(run.bb_mutex);
            run.replay_cv.wait(
                lock, [&] { return run.ledger.window_open() || run.stop.stop_requested(); });
            if (run.stop.stop_requested()) return;
            const auto [slot, entered] = run.ledger.admit(*popped);
            lock.unlock();
            if (entered == Stage::pending) {
                run.work_cv.notify_one();
            } else if (entered == Stage::disposed) {
                relay.done(slot.rank, slot.levels, ScalingProgress::Outcome::pruned);
                if (run.checkpoint != nullptr) run.checkpoint->maybe_flush();
            }
        }
    }
};

/// One explorer worker, built on its own thread: claims emitted slots
/// in pop order until production has ended and none is left, searches
/// each on its own EvalContext and completes it.
struct Worker {
    ExploreRun& run;
    ObserverRelay& relay;
    const SearchStrategy& strategy;
    std::uint64_t seed_base;
    EvaluationContext problem; ///< at the current slot's levels
    /// Rebound per slot; a rebound context acts exactly like a fresh
    /// one, so results do not depend on which worker searched a slot.
    EvalContext eval;

    void work() {
        std::unique_lock lock(run.bb_mutex);
        for (;;) {
            run.work_cv.wait(lock, [&] { return run.ledger.claimable() || !run.producing; });
            SearchSlot* slot = run.ledger.claim();
            if (slot == nullptr) return;
            const bool pruned = run.ledger.prunes_now(*slot);
            lock.unlock();
            const Stage stage = search(*slot, pruned);
            lock.lock();
            if (run.ledger.complete(*slot, stage)) run.replay_cv.notify_all();
            lock.unlock();
            if (run.checkpoint != nullptr) run.checkpoint->maybe_flush();
            lock.lock();
        }
    }

    /// Searches a claimed slot unless the run stopped or the claim's
    /// prune test skipped it, streams the outcome, and returns the stage
    /// to complete the slot with. Only this thread touches the slot's
    /// record until then.
    Stage search(SearchSlot& slot, bool pruned) {
        using Outcome = ScalingProgress::Outcome;
        if (run.stop.stop_requested()) return Stage::cut;
        if (pruned) {
            relay.done(slot.rank, slot.levels, Outcome::pruned);
            return Stage::worker_pruned;
        }
        problem.levels = slot.levels;
        eval.rebind(problem);
        LocalSearchResult found = strategy.search(eval, initial_sea_mapping(problem),
                                                  slot_seed(slot.levels, seed_base), &run.stop);
        // A stop landing while the search ran may have cut it short,
        // leaving a partial (non-replay-faithful) result: discard it —
        // the slot stays not_run and a resume re-searches it in full.
        if (run.stop.stop_requested()) return Stage::cut;
        if (!found.found_feasible) {
            slot.record.kind = DseSlotRecord::Kind::no_design;
            relay.done(slot.rank, slot.levels, Outcome::searched_no_design);
        } else {
            slot.record.kind = DseSlotRecord::Kind::feasible;
            slot.record.point = {slot.levels, std::move(found.best_mapping), found.best_metrics};
            relay.done(slot.rank, slot.levels, Outcome::feasible, &slot.record.point);
        }
        return Stage::searched;
    }
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
    if (observer != nullptr) observer->on_explore_begin(queue.total());
    ObserverRelay relay{observer, queue.total()};
    ExploreRun run(params.prune, checkpoint, cancel);
    Producer producer{run, queue, relay};
    // The graph-only half of every worker's evaluation engine.
    const auto plan = std::make_shared<const EvalPlan>(graph, arch.core_count());
    const EvaluationContext problem{graph, arch, {}, SeuEstimator(ser_, policy_),
                                    deadline_seconds};
    if (!run.stop.stop_requested()) {
        std::vector<std::jthread> workers; // joined at the end of this block
        run.guard([&] {
            const std::size_t worker_count = resolve_thread_count(params.num_threads);
            workers.reserve(worker_count);
            for (std::size_t w = 0; w < worker_count; ++w)
                workers.emplace_back([&] {
                    run.guard([&] {
                        Worker{run, relay, strategy, params.search.seed, problem,
                               EvalContext(plan)}
                            .work();
                    });
                });
            producer.produce();
        });
        run.end_production(); // on every way out of production, before the join
    }
    // Quiescent now: every worker has returned.
    if (run.first_error != nullptr) std::rethrow_exception(run.first_error);
    // Persist whatever the run decided — on a stop this is the journal
    // a resume continues from; on completion it doubles as a memoized
    // result (a resume replays it without searching).
    if (checkpoint != nullptr) checkpoint->flush();

    DseResult result;
    result.scalings_total = queue.total();
    result.scalings_skipped_infeasible = producer.skipped;
    run.ledger.fold(result, run.stop.stop_requested());
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
