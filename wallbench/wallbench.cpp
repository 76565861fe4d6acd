// wallbench — wall-clock benchmark of seamap's two user-facing jobs:
// the Fig. 4 design-space exploration (api/explore.h) and the
// fault-injection campaign that validates its best design
// (sim/campaign.h). Every operation is explore() on a fixed scenario
// followed by a CampaignEngine run on the best design; both results are
// digested and checked against the committed reference.
//
//     wallbench --workload NAME --seed N --seconds S --trace 0|1
//               --reference FILE [--git-sha SHA] [--print-digests]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports per-layer
// metrics, measured from this file only: a timing decorator around the
// Fig. 7 strategy, plus serial replays of the producer (lazy queue,
// scaling bounds) and of the per-slot setup (EvalContext construction,
// initial mapping) on the slots the explorer searched. Nothing is
// traced inside the library. All times are steady_clock wall time,
// because explore and campaign work runs off the main thread. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include "api/explore.h"
#include "api/json.h"
#include "api/problem.h"
#include "api/scenarios.h"
#include "arch/scaling_table.h"
#include "core/dse.h"
#include "core/eval_context.h"
#include "core/initial_mapping.h"
#include "core/lazy_scaling_queue.h"
#include "core/scaling_bounds.h"
#include "core/search_strategy.h"
#include "sched/list_scheduler.h"
#include "sim/campaign.h"
#include "taskgraph/mpeg2.h"
#include "util/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using namespace seamap;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- workloads

Problem mpeg2_problem() {
    return ProblemBuilder()
        .graph(mpeg2_decoder_graph())
        .architecture(4, VoltageScalingTable::arm7_three_level())
        .deadline_seconds(mpeg2_deadline_seconds())
        .build();
}

Problem tgff1000_problem() { return scale_problem(1000, 16, 3, 1); }

/// One named workload: a scenario, its per-slot search budget
/// (iterations only, never a time budget, so every output is
/// deterministic) and the shape of the campaign that validates the best
/// design. A run spends `explore_share` of its time repeating explore()
/// and the rest repeating the campaign on the design it found.
struct Workload {
    std::string_view name;
    Problem (*build)();
    std::uint64_t iterations;
    std::uint64_t restarts;
    std::uint64_t trials;
    std::uint64_t shard_size;
    double explore_share;
};

constexpr Workload k_workloads[] = {
    // Many small searches with real pruning (60 iterations is about the
    // least at which the branch-and-bound disposes of slots); the serial
    // producer is the rest.
    {"acceptance", scale_acceptance_problem, 60, 1, 20'000, 1024, 0.85},
    // A large graph on 153 slots: per-slot setup is half the work. A
    // trial costs ~0.5 ms on this design, hence the small campaign.
    {"tgff1000", tgff1000_problem, 5, 1, 1'024, 256, 0.7},
    // The `seamap_cli campaign` defaults on the paper's MPEG-2 decoder:
    // a tiny explore, then a campaign-dominated validation.
    {"mpeg2_campaign", mpeg2_problem, 4'000, 3, 200'000, 1024, 0.3},
};

/// --seed picks one of this many committed variants: variant v runs the
/// campaign with seed v + 1. The exploration always uses search seed 1,
/// so every variant explores the same design with the same work.
constexpr std::uint64_t k_variants = 8;

// ---------------------------------------------------------------- clocks

double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

/// User + system CPU of the whole process, all threads.
double process_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double median(std::vector<double> xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t mid = xs.size() / 2;
    return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

// ---------------------------------------------------------------- digests

std::string fnv1a_hex(std::string_view bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char out[17];
    std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(hash));
    return out;
}

/// best (levels, mapping, P, Gamma), the Pareto front and every
/// scalings_* counter.
std::string explore_digest(const DseResult& result) {
    return fnv1a_hex(to_json(result).dump());
}

/// The report document plus the exact integer moments behind its
/// statistics (the per-core / per-task hits are in the document).
std::string campaign_digest(const CampaignReport& report) {
    std::string bytes = to_json(report).dump();
    auto append = [&](const ExactMoments& moments) {
        const ExactMomentsState s = moments.state();
        for (const std::uint64_t v :
             {s.count, s.min, s.max, s.sum_hi, s.sum_lo, s.sum_sq_hi, s.sum_sq_lo})
            bytes += ' ' + std::to_string(v);
    };
    append(report.total_stats);
    for (const SiteReport& site : report.sites) append(site.stats);
    return fnv1a_hex(bytes);
}

struct Digests {
    std::string explore;
    std::string campaign;
};

/// reference.txt: `workload variant explore_digest campaign_digest`
/// lines; `#` starts a comment.
std::optional<Digests> load_reference(const std::string& path, std::string_view workload,
                                      std::uint64_t variant) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string name;
        std::uint64_t v = 0;
        Digests digests;
        if (fields >> name >> v >> digests.explore >> digests.campaign && name == workload &&
            v == variant)
            return digests;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------- the timed decorator

/// Per-explore totals gathered by TimedStrategy.
struct SearchTally {
    std::uint64_t calls = 0;
    double busy_s = 0.0;
    std::uint64_t evaluations = 0;
    std::uint64_t full_evals = 0;
    std::uint64_t incremental_evals = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_entries = 0;
    /// Scaling of every executed search, for the setup replay.
    std::vector<ScalingVector> levels;
};

/// Times every search the explorer executes — speculative ones
/// included — around the unchanged Fig. 7 strategy. The EvalContext is
/// fresh per search, so its stats() after the call are this search's.
class TimedStrategy final : public SearchStrategy {
public:
    explicit TimedStrategy(const LocalSearchParams& params) : inner_(params) {}

    std::string name() const override { return inner_.name(); }

    LocalSearchResult search(const EvaluationContext& ctx, const Mapping& initial,
                             std::uint64_t seed,
                             const CancellationToken* cancel) const override {
        return inner_.search(ctx, initial, seed, cancel);
    }

    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel) const override {
        const Clock::time_point start = Clock::now();
        LocalSearchResult result = inner_.search(eval, initial, seed, cancel);
        const double busy = seconds_between(start, Clock::now());
        const EvalContext::Stats& stats = eval.stats();
        std::lock_guard lock(mutex_);
        ++tally_.calls;
        tally_.busy_s += busy;
        tally_.evaluations += result.evaluations;
        tally_.full_evals += stats.full_evals;
        tally_.incremental_evals += stats.incremental_evals;
        tally_.memo_hits += stats.memo_hits;
        tally_.memo_entries += stats.memo_entries;
        tally_.levels.push_back(eval.problem().levels);
        return result;
    }

    SearchTally take() const {
        std::lock_guard lock(mutex_);
        SearchTally out = std::move(tally_);
        tally_ = {};
        return out;
    }

private:
    OptimizedMappingStrategy inner_;
    mutable std::mutex mutex_;
    mutable SearchTally tally_;
};

// ---------------------------------------------------------------- one operation

ExploreOptions explore_options(const Workload& workload, std::size_t threads) {
    ExploreOptions options;
    options.dse.search.max_iterations = workload.iterations;
    options.dse.search.restarts = workload.restarts;
    options.dse.num_threads = threads;
    return options;
}

struct TimedExplore {
    DseResult result;
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/// explore() through the public API, or — when `traced` is given —
/// the same exploration with the timing decorator as its strategy.
TimedExplore timed_explore(const Problem& problem, const ExploreOptions& options,
                           const TimedStrategy* traced) {
    TimedExplore out;
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    if (traced == nullptr) {
        out.result = explore(problem, options);
    } else {
        const DesignSpaceExplorer explorer(problem.ser_model(), problem.exposure_policy());
        out.result = explorer.explore(problem.graph(), problem.architecture(),
                                      problem.deadline_seconds(), options.dse, *traced);
    }
    out.wall_s = seconds_between(start, Clock::now());
    out.cpu_s = process_cpu_seconds() - cpu0;
    return out;
}

struct TimedCampaign {
    CampaignReport report;
    double wall_s = 0.0;
};

CampaignConfig campaign_config(const Workload& workload, std::size_t threads,
                               std::uint64_t seed) {
    CampaignConfig config;
    config.trials = workload.trials;
    config.shard_size = workload.shard_size;
    config.num_threads = threads;
    config.seed = seed;
    return config;
}

TimedCampaign timed_campaign(const Problem& problem, const DsePoint& design,
                             const CampaignConfig& config) {
    const Schedule schedule = ListScheduler{}.schedule(problem.graph(), design.mapping,
                                                       problem.architecture(), design.levels);
    const CampaignEngine engine(problem.ser_model(), config);
    TimedCampaign out;
    const Clock::time_point start = Clock::now();
    out.report = engine.run(problem.graph(), design.mapping, problem.architecture(),
                            design.levels, schedule);
    out.wall_s = seconds_between(start, Clock::now());
    return out;
}

/// Counts operations and digest mismatches; an operation is failed when
/// it throws, finds no design, or any digest differs from the reference.
class Checker {
public:
    explicit Checker(Digests reference) : reference_(std::move(reference)) {}

    void count(bool ok, std::string_view what) {
        ++attempted_;
        if (ok) return;
        ++failed_;
        std::cerr << "wallbench: operation failed: " << what << '\n';
    }
    bool explore_ok(const DseResult& result) const {
        return result.best.has_value() && explore_digest(result) == reference_.explore;
    }
    bool campaign_ok(const CampaignReport& report) const {
        return campaign_digest(report) == reference_.campaign;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

private:
    Digests reference_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------- reporting

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string quoted(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + '"';
}

void print_result(const std::vector<Metric>& metrics, const Checker& checker) {
    for (const Metric& m : metrics)
        std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    const double failed_frac =
        checker.attempted() == 0
            ? 1.0
            : static_cast<double>(checker.failed()) / static_cast<double>(checker.attempted());
    std::printf("  %-26s %16.6g ratio (%llu of %llu operations)\n", "failed_frac",
                failed_frac, static_cast<unsigned long long>(checker.failed()),
                static_cast<unsigned long long>(checker.attempted()));
    std::string json = "{\"correct\": ";
    json += checker.failed() == 0 && checker.attempted() > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checker.attempted());
    json += ", \"failed\": " + std::to_string(checker.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) json += ", ";
        json += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    std::printf("%s}}\n", json.c_str());
    std::fflush(stdout);
}

#if defined(__clang__)
constexpr const char* k_compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* k_compiler = "gcc " __VERSION__;
#else
constexpr const char* k_compiler = "unknown";
#endif

void print_context(const Workload& workload, std::uint64_t seed, std::uint64_t variant,
                   std::size_t threads, int trace, const std::string& git_sha) {
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
    std::printf("{\"context\": {\"workload\": %s, \"seed\": %llu, \"variant\": %llu, "
                "\"trace\": %d, \"nproc\": %u, \"threads\": %zu, \"compiler\": %s, "
                "\"build_type\": %s, \"git_sha\": %s, \"loadavg\": [%.2f, %.2f, %.2f]}}\n",
                quoted(workload.name).c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(variant), trace,
                std::thread::hardware_concurrency(), threads,
                quoted(k_compiler).c_str(),
                quoted(WALLBENCH_BUILD_TYPE).c_str(), quoted(git_sha).c_str(), load[0],
                load[1], load[2]);
}

// ---------------------------------------------------------------- set-up

/// Set-up is the workload's Problem construction, microseconds to
/// milliseconds of work. The host's speed flips between states every few
/// seconds, and a single build sees only one of them, so builds are
/// timed in a short batch before every operation, spread over the whole
/// run. The reported figure is the median, over five chronological
/// groups of batches, of each group's mean build time. 0.1 s of untimed
/// builds warm the caches first.
class Setup {
public:
    explicit Setup(const Workload& workload)
        : workload_(workload), problem_(workload.build()) {
        const Clock::time_point warm_until = Clock::now() + std::chrono::milliseconds(100);
        while (Clock::now() < warm_until) (void)workload.build();
        time_batch();
    }

    /// The problem every operation runs on; stable for the Setup's life.
    const Problem& problem() const { return problem_; }

    /// Back-to-back builds for 2 ms (at least one), each discarded after
    /// it is timed.
    void time_batch() {
        Batch batch;
        const Clock::time_point begin = Clock::now();
        do {
            const Clock::time_point start = Clock::now();
            const Problem built = workload_.build();
            batch.seconds += seconds_between(start, Clock::now());
            ++batch.builds;
        } while (seconds_between(begin, Clock::now()) < 0.002);
        batches_.push_back(batch);
    }

    /// Seconds per Problem construction (see the class comment).
    double build_s() const {
        const std::size_t groups = std::min<std::size_t>(5, batches_.size());
        std::vector<double> means;
        for (std::size_t g = 0; g < groups; ++g) {
            Batch sum;
            for (std::size_t i = g * batches_.size() / groups;
                 i < (g + 1) * batches_.size() / groups; ++i) {
                sum.seconds += batches_[i].seconds;
                sum.builds += batches_[i].builds;
            }
            means.push_back(sum.seconds / static_cast<double>(sum.builds));
        }
        return median(means);
    }

private:
    struct Batch {
        double seconds = 0.0;
        std::uint64_t builds = 0;
    };

    const Workload& workload_;
    Problem problem_;
    std::vector<Batch> batches_;
};

/// Per-operation distribution of one timing, for the human-readable
/// part of the output.
void print_distribution(std::string_view name, std::vector<double> samples) {
    if (samples.empty()) return;
    std::sort(samples.begin(), samples.end());
    const auto at = [&](double q) { // linear interpolation between ranks
        const double rank = q * static_cast<double>(samples.size() - 1);
        const std::size_t low = static_cast<std::size_t>(rank);
        const std::size_t high = std::min(low + 1, samples.size() - 1);
        return samples[low] + (rank - static_cast<double>(low)) * (samples[high] - samples[low]);
    };
    std::printf("  %-26s n=%zu min %.4g p25 %.4g median %.4g p75 %.4g max %.4g\n",
                std::string(name).c_str(), samples.size(), samples.front(), at(0.25),
                median(samples), at(0.75), samples.back());
}

/// Repeats the campaign on `design` until `until` (at least once);
/// returns the trials per wall second of each run.
std::vector<double> run_campaigns(Setup& setup, const DsePoint& design,
                                  const CampaignConfig& config, Clock::time_point until,
                                  Checker& checker) {
    std::vector<double> rates;
    do {
        setup.time_batch();
        try {
            const TimedCampaign campaign = timed_campaign(setup.problem(), design, config);
            rates.push_back(static_cast<double>(campaign.report.trials) / campaign.wall_s);
            checker.count(checker.campaign_ok(campaign.report), "campaign digest");
        } catch (const std::exception& e) {
            checker.count(false, e.what());
        }
    } while (Clock::now() < until);
    return rates;
}

// ---------------------------------------------------------------- trace 0

std::vector<Metric> run_plain(const Workload& workload, Setup& setup, std::size_t threads,
                              std::uint64_t seed, double seconds, Checker& checker) {
    std::vector<double> explore_s;
    std::vector<double> explore_cpu_s;
    std::optional<DsePoint> best;
    const ExploreOptions options = explore_options(workload, threads);
    const Clock::time_point begin = Clock::now();
    do {
        setup.time_batch();
        try {
            const TimedExplore timed = timed_explore(setup.problem(), options, nullptr);
            explore_s.push_back(timed.wall_s);
            explore_cpu_s.push_back(timed.cpu_s);
            checker.count(checker.explore_ok(timed.result), "explore digest");
            if (timed.result.best) best = timed.result.best;
        } catch (const std::exception& e) {
            checker.count(false, e.what());
        }
    } while (seconds_between(begin, Clock::now()) < workload.explore_share * seconds);
    if (!best) throw std::runtime_error("no feasible design to validate");
    const std::vector<double> trials_per_s =
        run_campaigns(setup, *best, campaign_config(workload, threads, seed),
                      begin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds)),
                      checker);
    print_distribution("explore_s per explore", explore_s);
    print_distribution("trials_per_s per campaign", trials_per_s);

    return {
        {"setup_s", setup.build_s(), "s"},
        {"explore_s", median(explore_s), "s"},
        {"explore_cpu_s", median(explore_cpu_s), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"trials_per_s", median(trials_per_s), "1/s"},
    };
}

// ---------------------------------------------------------------- trace 1

/// Serial replay of the explorer's producer: the bounds model, a full
/// drain of the lazy queue (gate + corner keys) and the per-case bound
/// list of every gate passer, as DesignSpaceExplorer::explore computes
/// them on its producer thread.
struct ProducerReplay {
    double model_s = 0.0;
    double drain_s = 0.0;
    double case_lists_s = 0.0;
    std::uint64_t pops = 0;
    std::uint64_t generated = 0;
    std::uint64_t gate_passed = 0;
    std::uint64_t cases = 0;

    double total_s() const { return model_s + drain_s + case_lists_s; }
};

ProducerReplay replay_producer(const Problem& problem) {
    ProducerReplay out;
    const Clock::time_point t0 = Clock::now();
    const ScalingBoundsModel model(problem.graph(), problem.architecture(),
                                   problem.deadline_seconds(), problem.ser_model(),
                                   problem.exposure_policy());
    const Clock::time_point t1 = Clock::now();
    LazyScalingQueue queue(problem.graph(), problem.architecture(), problem.deadline_seconds(),
                           &model);
    std::vector<ScalingVector> passers;
    while (std::optional<LazyScalingQueue::Slot> slot = queue.pop())
        if (slot->gate_passed) passers.push_back(std::move(slot->levels));
    const Clock::time_point t2 = Clock::now();
    for (const ScalingVector& levels : passers) out.cases += model.case_bounds_for(levels).size();
    const Clock::time_point t3 = Clock::now();
    out.model_s = seconds_between(t0, t1);
    out.drain_s = seconds_between(t1, t2);
    out.case_lists_s = seconds_between(t2, t3);
    out.pops = queue.popped();
    out.generated = queue.generated();
    out.gate_passed = passers.size();
    return out;
}

/// Serial replay of the per-slot setup a worker does before each
/// search, on the scalings the explorer actually searched.
struct SetupReplay {
    double ctor_ms = 0.0; ///< per slot: evaluation_context + EvalContext
    double init_ms = 0.0; ///< per slot: initial_sea_mapping
};

SetupReplay replay_slot_setup(const Problem& problem, const std::vector<ScalingVector>& slots) {
    double ctor_s = 0.0;
    double init_s = 0.0;
    for (const ScalingVector& levels : slots) {
        const Clock::time_point t0 = Clock::now();
        const EvaluationContext ctx = problem.evaluation_context(levels);
        const EvalContext eval(ctx);
        const Clock::time_point t1 = Clock::now();
        const Mapping initial = initial_sea_mapping(ctx);
        const Clock::time_point t2 = Clock::now();
        ctor_s += seconds_between(t0, t1);
        init_s += seconds_between(t1, t2);
        if (initial.raw().size() != problem.graph().task_count())
            throw std::runtime_error("initial mapping is incomplete");
    }
    const double n = slots.empty() ? 1.0 : static_cast<double>(slots.size());
    return {1e3 * ctor_s / n, 1e3 * init_s / n};
}

double build_sources_ms(const Problem& problem, const DsePoint& design,
                        const CampaignConfig& config) {
    const Schedule schedule = ListScheduler{}.schedule(problem.graph(), design.mapping,
                                                       problem.architecture(), design.levels);
    const CampaignEngine engine(problem.ser_model(), config);
    std::vector<double> samples;
    const Clock::time_point begin = Clock::now();
    while (samples.size() < 5 || seconds_between(begin, Clock::now()) < 0.05) {
        const Clock::time_point start = Clock::now();
        const std::vector<FaultSource> sources = engine.build_sources(
            problem.graph(), design.mapping, problem.architecture(), design.levels, schedule);
        samples.push_back(seconds_between(start, Clock::now()));
        if (sources.empty()) throw std::runtime_error("campaign has no fault sources");
    }
    return 1e3 * median(samples);
}

std::vector<Metric> run_traced(const Workload& workload, Setup& setup,
                               std::size_t threads, std::uint64_t seed, double seconds,
                               Checker& checker) {
    const Problem& problem = setup.problem();
    const ExploreOptions options = explore_options(workload, threads);
    const TimedStrategy traced(options.dse.search);

    // Untraced and traced explores alternate at `threads`. The per-layer
    // figures come from the traced explore of median wall time, so its
    // spans and its wall time describe the same run.
    struct TracedRep {
        double wall_s;
        SearchTally tally;
    };
    std::vector<double> plain_s;
    std::vector<TracedRep> reps;
    DseResult result;
    const Clock::time_point begin = Clock::now();
    do {
        setup.time_batch();
        const TimedExplore plain = timed_explore(problem, options, nullptr);
        plain_s.push_back(plain.wall_s);
        checker.count(checker.explore_ok(plain.result), "untraced explore digest");
        const TimedExplore timed = timed_explore(problem, options, &traced);
        checker.count(checker.explore_ok(timed.result), "traced explore digest");
        reps.push_back({timed.wall_s, traced.take()});
        result = timed.result;
    } while (seconds_between(begin, Clock::now()) < workload.explore_share * seconds);
    if (!result.best) throw std::runtime_error("no feasible design");
    const CampaignConfig config = campaign_config(workload, threads, seed);
    const std::vector<double> trials_per_s =
        run_campaigns(setup, *result.best, config,
                      begin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds)),
                      checker);
    std::sort(reps.begin(), reps.end(),
              [](const TracedRep& a, const TracedRep& b) { return a.wall_s < b.wall_s; });
    const TracedRep& mid = reps[(reps.size() - 1) / 2];
    const SearchTally& tally = mid.tally;

    // One traced explore at a single thread: the layer reconciliation.
    const ExploreOptions serial_options = explore_options(workload, 1);
    const TimedExplore serial = timed_explore(problem, serial_options, &traced);
    checker.count(checker.explore_ok(serial.result), "1-thread explore digest");
    const SearchTally serial_tally = traced.take();

    const ProducerReplay producer = replay_producer(problem);
    const SetupReplay slot_setup = replay_slot_setup(problem, serial_tally.levels);
    const double per_slot_setup_s = 1e-3 * (slot_setup.ctor_ms + slot_setup.init_ms);
    const double accounted_1t = producer.total_s() +
                                per_slot_setup_s * static_cast<double>(serial_tally.calls) +
                                serial_tally.busy_s;

    // One campaign at a single thread: per-trial cost and scaling.
    const TimedCampaign serial_campaign =
        timed_campaign(problem, *result.best, campaign_config(workload, 1, seed));
    checker.count(checker.campaign_ok(serial_campaign.report), "1-thread campaign digest");
    const double serial_rate =
        static_cast<double>(serial_campaign.report.trials) / serial_campaign.wall_s;

    const double explore_s = mid.wall_s;
    const double calls = static_cast<double>(tally.calls);
    const double busy_s = tally.busy_s;
    const double evaluations = static_cast<double>(tally.evaluations);
    const double lookups =
        static_cast<double>(tally.full_evals + tally.incremental_evals + tally.memo_hits);
    const double plain_median = median(plain_s);
    return {
        {"queue.drain_s", producer.drain_s, "s"},
        {"queue.pops", static_cast<double>(producer.pops), "count"},
        {"queue.generated", static_cast<double>(producer.generated), "count"},
        {"queue.gate_passed", static_cast<double>(producer.gate_passed), "count"},
        {"bounds.model_s", producer.model_s, "s"},
        {"bounds.case_lists_s", producer.case_lists_s, "s"},
        {"bounds.cases", static_cast<double>(producer.cases), "count"},
        {"bounds.cases_per_slot",
         static_cast<double>(producer.cases) /
             static_cast<double>(std::max<std::uint64_t>(1, producer.gate_passed)),
         "count"},
        {"dse.total", static_cast<double>(result.scalings_total), "count"},
        {"dse.skipped_infeasible", static_cast<double>(result.scalings_skipped_infeasible),
         "count"},
        {"dse.emitted", static_cast<double>(result.scalings_emitted), "count"},
        {"dse.pruned", static_cast<double>(result.scalings_pruned), "count"},
        {"dse.searched", static_cast<double>(result.scalings_searched), "count"},
        {"dse.self_s", serial.wall_s - accounted_1t, "s"},
        {"search.calls", calls, "count"},
        {"search.speculative_frac",
         (calls - static_cast<double>(result.scalings_searched)) / std::max(1.0, calls),
         "ratio"},
        {"search.busy_s", busy_s, "s"},
        {"search.ms_per_call", 1e3 * busy_s / std::max(1.0, calls), "ms"},
        {"search.evaluations", evaluations, "count"},
        {"search.evals_per_s", evaluations / busy_s, "1/s"},
        {"eval.ctor_ms", slot_setup.ctor_ms, "ms"},
        {"eval.full_evals", static_cast<double>(tally.full_evals), "count"},
        {"eval.incremental_evals", static_cast<double>(tally.incremental_evals), "count"},
        {"eval.memo_hits", static_cast<double>(tally.memo_hits), "count"},
        {"eval.memo_entries", static_cast<double>(tally.memo_entries), "count"},
        {"eval.memo_hit_frac", static_cast<double>(tally.memo_hits) / std::max(1.0, lookups),
         "ratio"},
        {"init.mapping_ms", slot_setup.init_ms, "ms"},
        {"pool.threads", static_cast<double>(threads), "count"},
        {"pool.busy_frac",
         (busy_s + per_slot_setup_s * calls) / (static_cast<double>(threads) * explore_s),
         "ratio"},
        {"campaign.build_sources_ms", build_sources_ms(problem, *result.best, config), "ms"},
        {"campaign.trial_us", 1e6 / serial_rate, "us"},
        {"campaign.shards", static_cast<double>(serial_campaign.report.shards), "count"},
        {"campaign.parallel_eff",
         median(trials_per_s) / (static_cast<double>(threads) * serial_rate), "ratio"},
        {"api.problem_build_s", setup.build_s(), "s"},
        {"recon.explore_1t_s", serial.wall_s, "s"},
        {"recon.accounted_frac", accounted_1t / serial.wall_s, "ratio"},
        {"trace.overhead_frac", (explore_s - plain_median) / plain_median, "ratio"},
    };
}

// ---------------------------------------------------------------- main

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string reference;
    std::string git_sha = "unknown";
    bool print_digests = false;
};

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "wallbench: " << problem
              << "\nusage: wallbench --workload NAME --seed N --seconds S --trace 0|1"
                 " --reference FILE [--git-sha SHA] [--print-digests]\n";
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (flag == "--print-digests") {
            args.print_digests = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + std::string(flag));
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") args.workload = value;
            else if (flag == "--seed") args.seed = std::stoull(value);
            else if (flag == "--seconds") args.seconds = std::stod(value);
            else if (flag == "--trace") args.trace = std::stoi(value);
            else if (flag == "--reference") args.reference = value;
            else if (flag == "--git-sha") args.git_sha = value;
            else usage("unknown flag " + std::string(flag));
        } catch (const std::logic_error&) {
            usage("bad value for " + std::string(flag));
        }
    }
    if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
    if (args.reference.empty() && !args.print_digests) usage("--reference is required");
    return args;
}

int run(const Args& args) {
    const Workload* workload = nullptr;
    for (const Workload& w : k_workloads)
        if (w.name == args.workload) workload = &w;
    if (workload == nullptr) usage("unknown workload '" + args.workload + "'");

    const std::uint64_t variant = args.seed % k_variants;
    const std::uint64_t run_seed = variant + 1;
    const std::size_t threads =
        std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));

    if (args.print_digests) {
        // The reference lines of every variant of this workload.
        const Problem problem = workload->build();
        const TimedExplore timed =
            timed_explore(problem, explore_options(*workload, threads), nullptr);
        if (!timed.result.best) throw std::runtime_error("no feasible design");
        for (std::uint64_t v = 0; v < k_variants; ++v) {
            const TimedCampaign campaign = timed_campaign(
                problem, *timed.result.best, campaign_config(*workload, threads, v + 1));
            std::printf("%s %llu %s %s\n", std::string(workload->name).c_str(),
                        static_cast<unsigned long long>(v),
                        explore_digest(timed.result).c_str(),
                        campaign_digest(campaign.report).c_str());
        }
        return 0;
    }

    const std::string build_type = WALLBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool optimized = build_type == "Release" || build_type == "RelWithDebInfo";
#else
    const bool optimized = false;
#endif
    if (!optimized) {
        std::cerr << "wallbench: refusing to report from a non-optimized build ('"
                  << build_type << "'); configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }
    const std::optional<Digests> reference =
        load_reference(args.reference, workload->name, variant);
    if (!reference) {
        std::cerr << "wallbench: no reference digest for " << workload->name << " variant "
                  << variant << " in " << args.reference << '\n';
        return 2;
    }

    print_context(*workload, args.seed, variant, threads, args.trace, args.git_sha);
    Checker checker(*reference);
    Setup setup(*workload);
    const std::vector<Metric> metrics =
        args.trace == 0
            ? run_plain(*workload, setup, threads, run_seed, args.seconds, checker)
            : run_traced(*workload, setup, threads, run_seed, args.seconds, checker);
    print_result(metrics, checker);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "wallbench: " << e.what() << '\n';
        return 2;
    }
}
