// seamap command-line tool: generate, inspect, optimize and
// fault-inject task-graph workloads from the shell, using the text
// .tg format of taskgraph/serialization.h and the seamap public API
// (seamap/seamap.h) for everything downstream of the graph.
//
//   seamap_cli generate <tgff|fft|gauss|pipeline|mpeg2|fig8> [options] -o out.tg
//   seamap_cli info     <graph.tg> [--json]
//   seamap_cli optimize <graph.tg> --cores N --deadline S [--strategy NAME] [--json] [...]
//   seamap_cli campaign <graph.tg> --cores N --deadline S [--json] [...]
//   seamap_cli inject   <graph.tg> ...  (campaign, register-file site only)
//   seamap_cli version
//
// Run any subcommand with --help (or none) for its options. All
// randomness is seeded (--seed); identical invocations produce
// identical outputs — `optimize --json` is byte-identical for every
// --threads value.
#include "seamap/seamap.h"

#include "sched/gantt.h"
#include "sim/campaign.h"
#include "sim/campaign_checkpoint.h"
#include "taskgraph/dot.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "taskgraph/serialization.h"
#include "taskgraph/standard_graphs.h"
#include "tgff/random_graph.h"
#include "util/strings.h"
#include "util/table.h"

#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

using namespace seamap;

namespace {

// Exit codes (a wire contract; see README "Crash safety & resume"):
//   0  success
//   1  completed, but no feasible design exists
//   2  failure (usage, parse, io, corrupt/mismatched checkpoint, ...)
//   3  interrupted by SIGINT/SIGTERM; any --checkpoint journal is
//      saved and the run can continue with --resume
constexpr int k_exit_no_design = 1;
constexpr int k_exit_failure = 2;
constexpr int k_exit_interrupted = 3;

/// The process-wide stop flag, flipped by SIGINT/SIGTERM. request_stop
/// is one relaxed atomic store — async-signal-safe.
CancellationToken g_cancel;

extern "C" void handle_stop_signal(int) { g_cancel.request_stop(); }

void install_signal_handlers() {
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
}

/// Minimal --flag/--key value argument parser.
class ArgList {
public:
    ArgList(int argc, char** argv, int first) {
        for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
    }

    /// Positional arguments (not starting with --).
    std::vector<std::string> positionals() const {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (args_[i].rfind("--", 0) == 0 || args_[i] == "-o") {
                if (!is_boolean_flag(args_[i])) ++i; // skip the option's value
                continue;
            }
            out.push_back(args_[i]);
        }
        return out;
    }

    std::optional<std::string> value(const std::string& key) const {
        for (std::size_t i = 0; i + 1 < args_.size(); ++i)
            if (args_[i] == key) return args_[i + 1];
        return std::nullopt;
    }

    bool flag(const std::string& key) const {
        for (const auto& arg : args_)
            if (arg == key) return true;
        return false;
    }

    std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
        const auto v = value(key);
        return v ? parse_u64(*v) : fallback;
    }

    double real(const std::string& key, double fallback) const {
        const auto v = value(key);
        return v ? parse_double(*v) : fallback;
    }

private:
    /// Options that never take a value, so a following positional is
    /// not swallowed when flags precede it.
    static bool is_boolean_flag(const std::string& arg) {
        return arg == "--all-cores" || arg == "--gantt" || arg == "--help" ||
               arg == "--json" || arg == "--no-prune" || arg == "--resume";
    }

    std::vector<std::string> args_;
};

void print_usage(std::ostream& out) {
    out <<
        "seamap_cli — soft error-aware MPSoC design optimization\n"
        "\n"
        "subcommands:\n"
        "  generate <kind> -o out.tg [--seed S] [--tasks N] [--batches B]\n"
        "           kinds: tgff (random, paper distributions; --tasks),\n"
        "                  fft (--log2 K), gauss (--n N), pipeline (--stages S --width W),\n"
        "                  mpeg2 (paper Fig. 2), fig8 (paper worked example),\n"
        "                  scale (giant-instance --scale family: pipelined tgff,\n"
        "                         --tasks 1000 --cores 16 name the instance)\n"
        "  info <graph.tg> [--json]\n"
        "           structural summary: tasks, edges, costs, registers, critical path\n"
        "  optimize <graph.tg> --cores N [--deadline SECONDS] [--levels 2|3|4]\n"
        "           [--strategy " << join(search_strategy_names(), "|") << "]\n"
        "           [--iterations I] [--seed S] [--threads W] [--all-cores]\n"
        "           [--no-prune] [--json] [--dot out.dot] [--gantt]\n"
        "           [--checkpoint FILE [--resume] [--checkpoint-every N]\n"
        "            [--checkpoint-interval SECONDS]]\n"
        "           full Fig. 4 DSE (bound-driven branch and bound; --no-prune\n"
        "           forces the exhaustive sweep, same best/front either way);\n"
        "           prints the chosen design and the Pareto front\n"
        "  campaign <graph.tg> --cores N [--deadline SECONDS] [--levels 2|3|4]\n"
        "           [--strategy NAME] [--iterations I] [--trials T] [--shard-size B]\n"
        "           [--seed S] [--threads W] [--no-prune] [--policy full|busy|task]\n"
        "           [--weight-register X] [--weight-pipeline X] [--weight-memory X]\n"
        "           [--pipeline-bits B] [--json]\n"
        "           [--checkpoint FILE [--resume] [--checkpoint-every N]\n"
        "            [--checkpoint-interval SECONDS]]\n"
        "           optimize, then run the sharded fault-injection campaign with\n"
        "           differentiated fault sites (register file / pipeline / memory)\n"
        "           and per-task/per-core/per-site attribution; results are\n"
        "           byte-identical for every --threads and --shard-size\n"
        "  inject <graph.tg> [campaign options except the site weights]\n"
        "           campaign with only the register-file site: the Poisson SEU\n"
        "           campaign behind eq. (3), 200 trials by default, reported as\n"
        "           analytic vs measured SEUs\n"
        "  version | --version\n"
        "           print the library version\n"
        "  help | --help\n"
        "           show this message\n"
        "\n"
        "crash safety: --checkpoint FILE journals progress (append-only,\n"
        "fsynced, checksum-chained; a torn last line is dropped on load);\n"
        "Ctrl-C/SIGTERM stops gracefully with exit code 3, and --resume\n"
        "continues from the journal — final results are byte-identical\n"
        "to the uninterrupted run.\n"
        "exit codes: 0 ok, 1 no feasible design, 2 failure, 3 interrupted.\n";
}

/// For invocation errors: usage goes to stderr, exit status is 2.
/// (`help`/`--help` print the same text to stdout and exit 0.)
int usage_error() {
    print_usage(std::cerr);
    return k_exit_failure;
}

/// The --checkpoint option family, shared by optimize and campaign.
struct CheckpointArgs {
    std::optional<std::string> path;
    bool resume = false;
    std::uint64_t every = 8;  ///< flush after this many new records/shards
    double interval = 5.0;    ///< and at least this often (seconds)
};

CheckpointArgs checkpoint_args(const ArgList& args) {
    CheckpointArgs out;
    out.path = args.value("--checkpoint");
    out.resume = args.flag("--resume");
    out.every = args.u64("--checkpoint-every", out.every);
    out.interval = args.real("--checkpoint-interval", out.interval);
    if (!out.path && out.resume)
        throw Error(ErrorCategory::usage, "--resume requires --checkpoint <file>");
    return out;
}

/// Report a graceful SIGINT/SIGTERM stop. Under --json the machine
/// surface is the same {"error": ...} object every failure uses, with
/// the stable code "canceled".
int interrupted_exit(const ArgList& args, const std::optional<std::string>& saved_to) {
    Error error = saved_to ? Error(ErrorCategory::canceled,
                                   "interrupted; checkpoint saved, rerun with --resume "
                                   "to continue",
                                   *saved_to)
                           : Error(ErrorCategory::canceled,
                                   "interrupted; no --checkpoint given, progress lost");
    if (args.flag("--json")) {
        JsonValue out = JsonValue::object();
        out["error"] = to_json(error);
        std::cout << out.dump(2) << '\n';
    }
    std::cerr << "error: " << error.what() << '\n';
    return k_exit_interrupted;
}

/// Per-subcommand note channel for resume messaging (stderr, so JSON
/// stdout stays pure).
void note(const std::string& text) { std::cerr << "note: " << text << '\n'; }

/// Opens the explore journal at `path` into `journal` on the
/// --checkpoint cadence and, under --resume, loads it. Returns what the
/// load found: nullopt without --resume or without a journal.
std::optional<DseResumeInfo> open_dse_journal(std::optional<DseCheckpointer>& journal,
                                              const CheckpointArgs& ckpt,
                                              const std::string& path,
                                              const Problem& problem,
                                              const ExploreOptions& options) {
    journal.emplace(path, explore_state_hash(problem, options));
    journal->set_cadence(ckpt.every, ckpt.interval);
    if (!ckpt.resume) return std::nullopt;
    return journal->load(problem.graph().task_count(), problem.architecture().core_count());
}

SimExposurePolicy parse_sim_policy(const std::string& text) {
    if (text == "full") return SimExposurePolicy::full_duration;
    if (text == "busy") return SimExposurePolicy::busy_only;
    if (text == "task") return SimExposurePolicy::running_task;
    throw std::invalid_argument("--policy must be full, busy or task");
}

VoltageScalingTable table_for(std::uint64_t levels) {
    switch (levels) {
    case 2: return VoltageScalingTable::arm7_two_level();
    case 3: return VoltageScalingTable::arm7_three_level();
    case 4: return VoltageScalingTable::arm7_four_level();
    default: throw std::invalid_argument("--levels must be 2, 3 or 4");
    }
}

/// Deadline default: 1.3x the two-core nominal lower bound (the
/// repository's sweep normalization) when the user gives none.
double default_deadline(const TaskGraph& graph) {
    const MpsocArchitecture two(2, VoltageScalingTable::arm7_three_level());
    return 1.3 * tm_lower_bound_seconds(graph, two, {1, 1});
}

/// The shared front half of optimize/campaign: problem from the CLI
/// arguments, validated at build().
Problem problem_from(const ArgList& args, const std::string& graph_path) {
    const TaskGraph graph = load_task_graph(graph_path);
    const double deadline = args.real("--deadline", default_deadline(graph));
    return ProblemBuilder()
        .graph(graph)
        .architecture(args.u64("--cores", 4), table_for(args.u64("--levels", 3)))
        .deadline_seconds(deadline)
        .build();
}

/// The explore knobs optimize and campaign share.
ExploreOptions explore_options_from(const ArgList& args, std::uint64_t default_iterations) {
    ExploreOptions options;
    options.strategy = args.value("--strategy").value_or("optimized");
    options.dse.search.max_iterations = args.u64("--iterations", default_iterations);
    options.dse.search.seed = args.u64("--seed", 1);
    options.dse.num_threads = args.u64("--threads", 1);
    options.dse.prune = !args.flag("--no-prune");
    return options;
}

int cmd_generate(const ArgList& args) {
    const auto positional = args.positionals();
    if (positional.empty()) {
        std::cerr << "generate: missing kind\n";
        return usage_error();
    }
    const auto out_path = args.value("-o").has_value() ? args.value("-o") : args.value("--out");
    if (!out_path) {
        std::cerr << "generate: missing -o <file>\n";
        return 2;
    }
    const std::string& kind = positional[0];
    const std::uint64_t seed = args.u64("--seed", 1);
    std::optional<TaskGraph> graph;
    if (kind == "tgff") {
        TgffParams params;
        params.task_count = args.u64("--tasks", 20);
        params.batch_count = args.u64("--batches", 1);
        graph = generate_tgff_graph(params, seed);
    } else if (kind == "fft") {
        StandardGraphParams params;
        params.batch_count = args.u64("--batches", 1);
        graph = fft_task_graph(static_cast<std::uint32_t>(args.u64("--log2", 4)), params);
    } else if (kind == "gauss") {
        StandardGraphParams params;
        params.batch_count = args.u64("--batches", 1);
        graph = gaussian_elimination_task_graph(
            static_cast<std::uint32_t>(args.u64("--n", 8)), params);
    } else if (kind == "pipeline") {
        StandardGraphParams params;
        params.batch_count = args.u64("--batches", 50);
        graph = pipeline_task_graph(static_cast<std::uint32_t>(args.u64("--stages", 6)),
                                    static_cast<std::uint32_t>(args.u64("--width", 3)), params);
    } else if (kind == "scale") {
        // The giant-instance family of api/scenarios.h scale_problem():
        // a pipelined TGFF graph (batch 256 so the throughput term
        // dominates T_M) sized for 10^3..10^4 tasks. --cores only names
        // the instance here; pass the same value to `optimize --cores`.
        TgffParams params;
        params.task_count = args.u64("--tasks", 1000);
        params.batch_count = args.u64("--batches", 256);
        params.name = "scale_" + std::to_string(params.task_count) + "t" +
                      std::to_string(args.u64("--cores", 16)) + "c";
        graph = generate_tgff_graph(params, seed);
    } else if (kind == "mpeg2") {
        graph = mpeg2_decoder_graph();
    } else if (kind == "fig8") {
        graph = fig8_example_graph();
    } else {
        std::cerr << "generate: unknown kind '" << kind << "'\n";
        return 2;
    }
    save_task_graph(*out_path, *graph);
    std::cout << "wrote " << graph->name() << " (" << graph->task_count() << " tasks, "
              << graph->edge_count() << " edges) to " << *out_path << '\n';
    return 0;
}

int cmd_info(const ArgList& args) {
    const auto positional = args.positionals();
    if (positional.empty()) {
        std::cerr << "info: missing graph file\n";
        return 2;
    }
    const TaskGraph graph = load_task_graph(positional[0]);
    std::vector<TaskId> all(graph.task_count());
    for (TaskId t = 0; t < graph.task_count(); ++t) all[t] = t;
    if (args.flag("--json")) {
        JsonValue out = JsonValue::object();
        out["seamap_version"] = k_version_string;
        out["name"] = graph.name();
        out["tasks"] = static_cast<std::uint64_t>(graph.task_count());
        out["edges"] = static_cast<std::uint64_t>(graph.edge_count());
        out["batches"] = graph.batch_count();
        out["exec_cycles"] = graph.total_exec_cycles();
        out["comm_cycles"] = graph.total_comm_cycles();
        out["critical_path_cycles"] = graph.critical_path_cycles(true);
        out["register_banks"] = static_cast<std::uint64_t>(graph.register_file().size());
        out["register_bits"] = graph.register_file().total_bits();
        out["register_union_bits"] = graph.union_register_bits(all);
        out["sources"] = static_cast<std::uint64_t>(graph.source_tasks().size());
        out["sinks"] = static_cast<std::uint64_t>(graph.sink_tasks().size());
        std::cout << out.dump(2) << '\n';
        return 0;
    }
    std::cout << "graph    : " << graph.name() << '\n';
    std::cout << "tasks    : " << graph.task_count() << '\n';
    std::cout << "edges    : " << graph.edge_count() << '\n';
    std::cout << "batches  : " << graph.batch_count() << '\n';
    std::cout << "exec     : " << fmt_grouped(graph.total_exec_cycles()) << " cycles\n";
    std::cout << "comm     : " << fmt_grouped(graph.total_comm_cycles()) << " cycles\n";
    std::cout << "crit.path: " << fmt_grouped(graph.critical_path_cycles(true))
              << " cycles (with communication)\n";
    std::cout << "registers: " << graph.register_file().size() << " banks, "
              << fmt_grouped(graph.register_file().total_bits()) << " bits\n";
    std::cout << "reg.union: " << fmt_grouped(graph.union_register_bits(all))
              << " bits (single-core floor)\n";
    std::cout << "sources  : " << graph.source_tasks().size()
              << ", sinks: " << graph.sink_tasks().size() << '\n';
    return 0;
}

int cmd_optimize(const ArgList& args) {
    const auto positional = args.positionals();
    if (positional.empty()) {
        std::cerr << "optimize: missing graph file\n";
        return 2;
    }
    const Problem problem = problem_from(args, positional[0]);
    const TaskGraph& graph = problem.graph();
    const MpsocArchitecture& arch = problem.architecture();
    const std::size_t cores = arch.core_count();

    ExploreOptions options = explore_options_from(args, 6'000);
    options.dse.search.require_all_cores = args.flag("--all-cores");

    const CheckpointArgs ckpt = checkpoint_args(args);
    std::optional<DseCheckpointer> checkpointer;
    if (ckpt.path) {
        const auto info = open_dse_journal(checkpointer, ckpt, *ckpt.path, problem, options);
        if (ckpt.resume)
            note(info ? "resuming: " + std::to_string(info->slots_decided) +
                            " scaling slots already decided"
                      : "no checkpoint at " + *ckpt.path + "; starting fresh");
    }
    const DseResult result = explore(problem, options, nullptr, &g_cancel,
                                     checkpointer ? &*checkpointer : nullptr);
    if (g_cancel.cancel_requested()) return interrupted_exit(args, ckpt.path);

    // --dot is a file side-effect, so it composes with --json (the
    // confirmation goes to stderr to keep stdout pure JSON); --gantt is
    // human-readable stdout and cannot.
    auto write_dot_file = [&](const std::string& path, const DsePoint& best,
                              std::ostream& log) -> bool {
        std::ofstream dot(path);
        if (!dot) {
            std::cerr << "cannot write " << path << '\n';
            return false;
        }
        std::vector<std::uint32_t> core_of(graph.task_count());
        for (TaskId t = 0; t < graph.task_count(); ++t) core_of[t] = best.mapping.core_of(t);
        write_dot_mapped(dot, graph, core_of);
        log << "mapped graph written to " << path << '\n';
        return true;
    };

    if (args.flag("--json")) {
        if (args.flag("--gantt")) std::cerr << "--gantt is ignored with --json\n";
        std::cout << optimize_report_json(problem, options.strategy, result).dump(2) << '\n';
        if (const auto dot_path = args.value("--dot"); dot_path && result.best)
            if (!write_dot_file(*dot_path, *result.best, std::cerr)) return 1;
        return result.best ? 0 : 1;
    }

    std::cout << "deadline " << fmt_double(problem.deadline_seconds(), 3)
              << " s | strategy " << options.strategy << " | scalings searched "
              << result.scalings_searched << "/" << result.scalings_enumerated << " ("
              << result.scalings_skipped_infeasible << " skipped, "
              << result.scalings_pruned << " pruned)\n";
    if (!result.best) {
        std::cerr << "no feasible design — loosen --deadline or add cores\n";
        return 1;
    }
    const DsePoint& best = *result.best;
    TableWriter design({"core", "level", "f (MHz)", "Vdd (V)", "tasks"});
    for (CoreId c = 0; c < cores; ++c) {
        std::vector<std::string> names;
        for (TaskId t : best.mapping.tasks_on(c)) names.push_back(graph.task(t).name);
        design.add_row({std::to_string(c), std::to_string(best.levels[c]),
                        fmt_double(arch.scaling_table().frequency_mhz(best.levels[c]), 1),
                        fmt_double(arch.scaling_table().vdd(best.levels[c]), 2),
                        join(names, " ")});
    }
    design.print_text(std::cout);
    std::cout << "P = " << fmt_double(best.metrics.power_mw, 2)
              << " mW | Gamma = " << fmt_sci(best.metrics.gamma, 3)
              << " | T_M = " << fmt_double(best.metrics.tm_seconds, 3) << " s | R = "
              << fmt_double(static_cast<double>(best.metrics.register_bits) / 1000.0, 1)
              << " kbit\n";

    std::cout << "\nPareto front (P mW, Gamma):";
    for (const DsePoint& point : result.pareto_front)
        std::cout << "  (" << fmt_double(point.metrics.power_mw, 2) << ", "
                  << fmt_sci(point.metrics.gamma, 2) << ")";
    std::cout << '\n';

    if (args.flag("--gantt")) {
        const Schedule schedule =
            ListScheduler{}.schedule(graph, best.mapping, arch, best.levels);
        write_gantt(std::cout, graph, schedule);
    }
    if (const auto dot_path = args.value("--dot"))
        if (!write_dot_file(*dot_path, best, std::cout)) return 1;
    return 0;
}

/// `inject`'s --json report: the chosen design plus the register-file
/// campaign's statistics under "seu". One shape for both outcomes:
/// design null (and no "seu" block) when nothing feasible exists.
JsonValue inject_report_json(const std::string& strategy, std::uint64_t trials,
                             std::uint64_t seed, const DsePoint* design,
                             const CampaignReport* report) {
    JsonValue out = JsonValue::object();
    out["seamap_version"] = k_version_string;
    out["strategy"] = strategy;
    out["trials"] = trials;
    out["seed"] = seed;
    out["design"] = design != nullptr ? to_json(*design) : JsonValue();
    if (report != nullptr) {
        const ExactMoments& stats = report->total_stats;
        JsonValue measured = JsonValue::object();
        measured["analytic_gamma"] = report->analytic_gamma;
        measured["mean"] = stats.mean();
        measured["ci95_halfwidth"] = stats.ci95_halfwidth();
        measured["stdev"] = stats.stdev();
        measured["min"] = stats.min();
        measured["max"] = stats.max();
        out["seu"] = std::move(measured);
    }
    return out;
}

/// `campaign`, and `inject` as its register-file-only alias: optimize,
/// then run the sharded campaign engine on the chosen design.
int cmd_campaign(const ArgList& args, bool inject) {
    const auto positional = args.positionals();
    if (positional.empty()) {
        std::cerr << (inject ? "inject" : "campaign") << ": missing graph file\n";
        return 2;
    }
    const Problem problem = problem_from(args, positional[0]);
    const ExploreOptions options = explore_options_from(args, 4'000);
    const std::uint64_t seed = options.dse.search.seed;

    CampaignConfig config;
    config.trials = args.u64("--trials", inject ? 200 : 20'000);
    config.shard_size = args.u64("--shard-size", 1024);
    config.num_threads = args.u64("--threads", 1);
    config.seed = seed;
    config.policy = parse_sim_policy(args.value("--policy").value_or("full"));
    if (inject) {
        config.weights = FaultSiteWeights::register_file_only();
    } else {
        config.weights.register_file =
            args.real("--weight-register", config.weights.register_file);
        config.weights.pipeline = args.real("--weight-pipeline", config.weights.pipeline);
        config.weights.memory = args.real("--weight-memory", config.weights.memory);
        config.pipeline_bits = args.real("--pipeline-bits", config.pipeline_bits);
    }
    const CampaignEngine engine(problem.ser_model(), config);

    // Two journals ride one --checkpoint stem: <FILE>.dse for the
    // exploration (a completed journal doubles as a memoized explore on
    // resume) and <FILE>.sim for the campaign's shard records.
    const CheckpointArgs ckpt = checkpoint_args(args);
    std::optional<DseCheckpointer> dse_ckpt;
    if (ckpt.path) {
        const auto info =
            open_dse_journal(dse_ckpt, ckpt, *ckpt.path + ".dse", problem, options);
        if (info && info->slots_decided > 0)
            note("resuming exploration: " + std::to_string(info->slots_decided) +
                 " scaling slots already decided");
    }
    const DseResult result =
        explore(problem, options, nullptr, &g_cancel, dse_ckpt ? &*dse_ckpt : nullptr);
    if (g_cancel.cancel_requested())
        return interrupted_exit(
            args, ckpt.path ? std::optional<std::string>(*ckpt.path + ".dse") : std::nullopt);

    if (!result.best) {
        if (args.flag("--json"))
            std::cout << (inject ? inject_report_json(options.strategy, config.trials, seed,
                                                      nullptr, nullptr)
                                 : campaign_report_json(problem, options.strategy, nullptr,
                                                        nullptr))
                             .dump(2)
                      << '\n';
        else
            std::cerr << "no feasible design to run the campaign on\n";
        return 1;
    }
    const DsePoint& best = *result.best;
    const TaskGraph& graph = problem.graph();
    const MpsocArchitecture& arch = problem.architecture();
    const Schedule schedule =
        ListScheduler{}.schedule(graph, best.mapping, arch, best.levels);

    std::optional<CampaignCheckpointer> sim_ckpt;
    if (ckpt.path) {
        sim_ckpt.emplace(*ckpt.path + ".sim",
                         campaign_state_hash(graph, best.mapping, arch, best.levels,
                                             schedule, problem.ser_model(), config));
        sim_ckpt->set_cadence(ckpt.every, ckpt.interval);
        if (ckpt.resume) {
            const auto info = sim_ckpt->load();
            if (info && info->shards_completed > 0)
                note("resuming campaign: " + std::to_string(info->shards_completed) +
                     " shards already measured");
        }
    }
    const CampaignReport report = engine.run(graph, best.mapping, arch, best.levels,
                                             schedule, &g_cancel,
                                             sim_ckpt ? &*sim_ckpt : nullptr);
    if (g_cancel.cancel_requested() && report.shards_completed < report.shards)
        return interrupted_exit(
            args, ckpt.path ? std::optional<std::string>(*ckpt.path + ".sim") : std::nullopt);

    if (args.flag("--json")) {
        const JsonValue out =
            inject ? inject_report_json(options.strategy, config.trials, seed, &best, &report)
                   : campaign_report_json(problem, options.strategy, &best, &report);
        std::cout << out.dump(2) << '\n';
        return 0;
    }
    std::cout << "design   : P " << fmt_double(best.metrics.power_mw, 2) << " mW, T_M "
              << fmt_double(best.metrics.tm_seconds, 3) << " s\n";
    if (inject) {
        const ExactMoments& stats = report.total_stats;
        std::cout << "analytic : " << fmt_sci(report.analytic_gamma, 4) << " SEUs (eq. 3)\n";
        std::cout << "measured : " << fmt_sci(stats.mean(), 4) << " +/- "
                  << fmt_sci(stats.ci95_halfwidth(), 2) << " over " << report.trials
                  << " trials\n";
        std::cout << "spread   : stdev " << fmt_sci(stats.stdev(), 3) << ", min " << stats.min()
                  << ", max " << stats.max() << '\n';
        return 0;
    }
    std::cout << "campaign : " << report.trials << " trials in " << report.shards
              << " shards of " << report.shard_size << " (seed " << report.seed << ")\n";
    std::cout << "analytic : " << fmt_sci(report.analytic_gamma, 4)
              << " weighted SEUs over all sites\n";
    std::cout << "measured : " << fmt_sci(report.total_stats.mean(), 4) << " +/- "
              << fmt_sci(report.total_stats.ci95_halfwidth(), 2) << " (95% CI)\n\n";

    TableWriter sites({"site", "analytic", "mean", "stdev", "95% CI", "hits"});
    for (std::size_t s = 0; s < k_fault_site_count; ++s) {
        const FaultSite site = static_cast<FaultSite>(s);
        const SiteReport& site_report = report.site(site);
        sites.add_row({std::string(fault_site_name(site)),
                       fmt_sci(site_report.analytic_gamma, 3),
                       fmt_sci(site_report.stats.mean(), 3),
                       fmt_sci(site_report.stats.stdev(), 2),
                       fmt_sci(site_report.stats.ci95_halfwidth(), 2),
                       fmt_grouped(site_report.stats.sum())});
    }
    sites.print_text(std::cout);

    std::cout << "\nper-core hits:";
    for (std::size_t c = 0; c < report.hits_per_core.size(); ++c)
        std::cout << "  core" << c << "=" << report.hits_per_core[c];
    std::cout << "\nmost vulnerable tasks (pipeline+memory hits):\n";
    std::vector<TaskId> order(graph.task_count());
    for (TaskId t = 0; t < order.size(); ++t) order[t] = t;
    std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
        if (report.hits_per_task[a] != report.hits_per_task[b])
            return report.hits_per_task[a] > report.hits_per_task[b];
        return a < b;
    });
    TableWriter tasks({"task", "core", "hits"});
    for (std::size_t i = 0; i < std::min<std::size_t>(8, order.size()); ++i) {
        const TaskId t = order[i];
        tasks.add_row({graph.task(t).name, std::to_string(best.mapping.core_of(t)),
                       fmt_grouped(report.hits_per_task[t])});
    }
    tasks.print_text(std::cout);
    return 0;
}

} // namespace

namespace {

/// One failure surface for every thrown error: a single `error:` line
/// on stderr, a {"error": {"code", "message", ...}} object on stdout
/// under --json, exit code 2. Ad-hoc exceptions from lower layers are
/// folded into the same shape with a conservative category.
int report_failure(const ArgList& args, const Error& error) {
    if (args.flag("--json")) {
        JsonValue out = JsonValue::object();
        out["error"] = to_json(error);
        std::cout << out.dump(2) << '\n';
    }
    std::cerr << "error: " << error.what() << '\n';
    return k_exit_failure;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage_error();
    const std::string command = argv[1];
    const ArgList args(argc, argv, 2);
    install_signal_handlers();
    try {
        if (command == "version" || command == "--version") {
            std::cout << "seamap " << k_version_string << '\n';
            return 0;
        }
        if (command == "--help" || command == "-h" || command == "help" ||
            args.flag("--help") || args.flag("-h")) {
            print_usage(std::cout);
            return 0;
        }
        if (command == "generate") return cmd_generate(args);
        if (command == "info") return cmd_info(args);
        if (command == "optimize") return cmd_optimize(args);
        if (command == "inject") return cmd_campaign(args, true);
        if (command == "campaign") return cmd_campaign(args, false);
        std::cerr << "unknown subcommand '" << command << "'\n";
        return usage_error();
    } catch (const Error& e) {
        return report_failure(args, e);
    } catch (const std::invalid_argument& e) {
        return report_failure(args, Error(ErrorCategory::invalid_argument, e.what()));
    } catch (const std::exception& e) {
        return report_failure(args, Error(ErrorCategory::internal, e.what()));
    }
}
