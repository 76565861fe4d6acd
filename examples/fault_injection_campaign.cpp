// Fault-injection campaign on a chosen MPEG-2 decoder design — the
// measurement half of the paper's methodology (Section II-B): SEUs
// arrive as a Poisson process over the live register space; the
// register-file campaign reports per-trial statistics, the analytic
// expectation they fluctuate around, and where the hits land (per core
// and per register). The design under test comes from the public API:
// a Problem plus a built-in search strategy picked by name.
//
// The same sharded engine (sim/campaign.h) then scales the process to
// large trial counts across differentiated fault sites (register file
// / pipeline / memory residency) with per-task, per-core and per-site
// attribution — and validates the analytic Γ of eq. (3) against the
// campaign's own 95% confidence interval. Results are byte-identical
// for every thread count and shard size.
//
// Usage: fault_injection_campaign [trials] [seed] [policy] [threads]
//   policy: full (default) | busy | task
#include "reliability/register_usage.h"
#include "seamap/seamap.h"

#include "core/initial_mapping.h"
#include "sim/campaign.h"
#include "sim/fault_injection.h"
#include "taskgraph/mpeg2.h"
#include "util/strings.h"
#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

using namespace seamap;

namespace {

SimExposurePolicy parse_policy(const std::string& text) {
    if (text == "full") return SimExposurePolicy::full_duration;
    if (text == "busy") return SimExposurePolicy::busy_only;
    if (text == "task") return SimExposurePolicy::running_task;
    throw std::invalid_argument("unknown policy '" + text + "' (full|busy|task)");
}

} // namespace

int main(int argc, char** argv) {
    const std::uint64_t trials = argc > 1 ? parse_u64(argv[1]) : 500;
    const std::uint64_t seed = argc > 2 ? parse_u64(argv[2]) : 42;
    const SimExposurePolicy policy = parse_policy(argc > 3 ? argv[3] : "full");
    const std::uint64_t threads = argc > 4 ? parse_u64(argv[4]) : 0; // 0 = hardware

    // Build a representative design: MPEG-2 on 4 cores at Table II's
    // scaling, mapped with the proposed two-stage optimizer.
    const Problem problem = ProblemBuilder()
                                .graph(mpeg2_decoder_graph())
                                .architecture(4, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(mpeg2_deadline_seconds())
                                .build();
    const TaskGraph& graph = problem.graph();
    const MpsocArchitecture& arch = problem.architecture();
    const ScalingVector levels = {2, 2, 3, 2};
    const EvaluationContext ctx = problem.evaluation_context(levels);
    const auto strategy = make_search_strategy("optimized", {.max_iterations = 3'000});
    const LocalSearchResult design = strategy->search(ctx, initial_sea_mapping(ctx), seed);
    const Mapping& mapping = design.best_mapping;
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);

    std::cout << "design  : MPEG-2 on 4 cores, scaling (2,2,3,2), "
              << (design.found_feasible ? "meets" : "MISSES") << " 29.97 fps deadline\n";
    std::cout << "policy  : "
              << (policy == SimExposurePolicy::full_duration ? "full_duration"
                  : policy == SimExposurePolicy::busy_only   ? "busy_only"
                                                             : "running_task")
              << ", SER 1e-9 SEU/bit/cycle at (1 V, 200 MHz)\n";
    std::cout << "trials  : " << trials << " (seed " << seed << ")\n\n";

    // Register-file campaign: the eq. (3) exposure alone.
    CampaignConfig config;
    config.trials = trials;
    config.shard_size = 1024;
    config.num_threads = static_cast<std::size_t>(threads);
    config.seed = seed;
    config.policy = policy;
    config.weights = FaultSiteWeights::register_file_only();
    const CampaignReport campaign = CampaignEngine(problem.ser_model(), config)
                                        .run(graph, mapping, arch, levels, schedule);
    const ExactMoments& seus = campaign.total_stats;
    std::cout << "analytic Gamma (eq. 3): " << fmt_sci(campaign.analytic_gamma, 4) << '\n';
    std::cout << "measured mean         : " << fmt_sci(seus.mean(), 4) << " +/- "
              << fmt_sci(seus.ci95_halfwidth(), 2) << " (95% CI)\n";
    std::cout << "measured stdev        : " << fmt_sci(seus.stdev(), 4)
              << "  (Poisson predicts " << fmt_sci(std::sqrt(campaign.analytic_gamma), 4)
              << ")\n";
    std::cout << "min / max trial       : " << seus.min() << " / " << seus.max() << "\n\n";

    // One located trial for the breakdown tables.
    const FaultInjector located(problem.ser_model(), policy, /*sample_locations=*/true);
    Rng rng(seed);
    const InjectionResult hits =
        located.inject(graph, mapping, arch, levels, schedule, rng);

    TableWriter per_core({"core", "scaling", "Vdd (V)", "register bits", "SEU hits"});
    const auto bits = per_core_register_bits(graph, mapping, arch.core_count());
    for (std::size_t c = 0; c < arch.core_count(); ++c)
        per_core.add_row({std::to_string(c), std::to_string(levels[c]),
                          fmt_double(arch.scaling_table().vdd(levels[c]), 2),
                          fmt_grouped(bits[c]), fmt_grouped(hits.per_core[c])});
    per_core.print_text(std::cout);

    std::cout << "\ntop registers by hits (one trial):\n";
    std::vector<RegisterId> order(graph.register_file().size());
    for (RegisterId r = 0; r < order.size(); ++r) order[r] = r;
    std::sort(order.begin(), order.end(), [&](RegisterId a, RegisterId b) {
        return hits.per_register[a] > hits.per_register[b];
    });
    TableWriter per_reg({"register", "bits", "hits"});
    for (std::size_t i = 0; i < std::min<std::size_t>(8, order.size()); ++i) {
        const RegisterId r = order[i];
        per_reg.add_row({graph.register_file().name(r),
                         fmt_grouped(graph.register_file().bits(r)),
                         fmt_grouped(hits.per_register[r])});
    }
    per_reg.print_text(std::cout);

    // All three fault sites at their default weights, at 40x the trial
    // count: per-site statistics plus per-task/per-core attribution,
    // byte-identical for any thread count / shard size.
    config.trials = trials * 40;
    config.weights = FaultSiteWeights{};
    const CampaignEngine engine(problem.ser_model(), config);
    const CampaignReport report =
        engine.run(graph, mapping, arch, levels, schedule);

    std::cout << "\nsharded campaign      : " << report.trials << " trials in "
              << report.shards << " shards of " << report.shard_size << '\n';
    std::cout << "weighted analytic     : " << fmt_sci(report.analytic_gamma, 4)
              << "  measured " << fmt_sci(report.total_stats.mean(), 4) << " +/- "
              << fmt_sci(report.total_stats.ci95_halfwidth(), 2) << " (95% CI)\n";
    const SiteReport& reg_site = report.site(FaultSite::register_file);
    std::cout << "eq. 3 validation      : analytic "
              << fmt_sci(reg_site.analytic_gamma, 4) << " vs measured "
              << fmt_sci(reg_site.stats.mean(), 4) << " — "
              << (std::abs(reg_site.stats.mean() - reg_site.analytic_gamma) <=
                          reg_site.stats.ci95_halfwidth()
                      ? "inside"
                      : "OUTSIDE")
              << " the campaign 95% CI\n\n";

    TableWriter site_table({"site", "analytic", "mean", "stdev", "95% CI", "hits"});
    for (std::size_t s = 0; s < k_fault_site_count; ++s) {
        const FaultSite site = static_cast<FaultSite>(s);
        const SiteReport& sr = report.site(site);
        site_table.add_row({std::string(fault_site_name(site)),
                            fmt_sci(sr.analytic_gamma, 3), fmt_sci(sr.stats.mean(), 3),
                            fmt_sci(sr.stats.stdev(), 2),
                            fmt_sci(sr.stats.ci95_halfwidth(), 2),
                            fmt_grouped(sr.stats.sum())});
    }
    site_table.print_text(std::cout);

    std::cout << "\nmost vulnerable tasks (pipeline+memory hits):\n";
    std::vector<TaskId> task_order(graph.task_count());
    for (TaskId t = 0; t < task_order.size(); ++t) task_order[t] = t;
    std::sort(task_order.begin(), task_order.end(), [&](TaskId a, TaskId b) {
        if (report.hits_per_task[a] != report.hits_per_task[b])
            return report.hits_per_task[a] > report.hits_per_task[b];
        return a < b;
    });
    TableWriter task_table({"task", "core", "hits"});
    for (std::size_t i = 0; i < std::min<std::size_t>(6, task_order.size()); ++i) {
        const TaskId t = task_order[i];
        task_table.add_row({graph.task(t).name, std::to_string(mapping.core_of(t)),
                            fmt_grouped(report.hits_per_task[t])});
    }
    task_table.print_text(std::cout);
    return 0;
}
