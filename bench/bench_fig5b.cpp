// Reproduces Table I and Fig. 5(b) of the paper: the ARM7TDMI voltage
// scaling table, and the nextScaling enumeration of all unique voltage
// scaling combinations for four cores and three levels (15 rows
// instead of 3^4 = 81), plus the combination-count scaling for other
// architectures.
#include "bench_common.h"
#include "util/table.h"

#include "arch/scaling_enumerator.h"
#include "arch/scaling_table.h"
#include "support/scaling_walker.h"
#include "util/table.h"

#include <iostream>

using namespace seamap;

int main() {
    // ---- Table I -------------------------------------------------------
    std::cout << "# Table I: ARM7TDMI operating points (eq. 2)\n";
    const auto table = VoltageScalingTable::arm7_three_level();
    TableWriter table1({"scaling s", "f (MHz)", "Vdd (V)", "Vdd from eq.(2)"});
    for (ScalingLevel level = 1; level <= table.level_count(); ++level)
        table1.add_row({std::to_string(level), fmt_double(table.frequency_mhz(level), 1),
                        fmt_double(table.vdd(level), 2),
                        fmt_double(arm7_vdd_for_frequency(table.frequency_mhz(level)), 3)});
    table1.print_text(std::cout);

    // ---- Fig. 5(b) -----------------------------------------------------
    std::cout << "\n# Fig. 5(b): nextScaling sequence for 4 cores x 3 levels\n";
    TableWriter fig5b({"iter", "s1", "s2", "s3", "s4"});
    ScalingEnumerator enumerator(4, 3);
    std::size_t row = 0;
    while (auto levels = enumerator.next()) {
        ++row;
        fig5b.add_row({std::to_string(row), std::to_string((*levels)[0]),
                       std::to_string((*levels)[1]), std::to_string((*levels)[2]),
                       std::to_string((*levels)[3])});
    }
    fig5b.print_text(std::cout);
    std::cout << "# paper: 15 unique combinations vs 3^4 = 81 exhaustive | measured: " << row
              << '\n';

    // ---- enumeration savings across architectures ----------------------
    std::cout << "\n# combination counts C(C+L-1, L-1) vs exhaustive L^C\n";
    TableWriter savings({"cores", "levels", "nextScaling", "exhaustive"});
    for (const std::size_t cores : {2u, 4u, 6u, 8u}) {
        for (const std::size_t levels : {2u, 3u, 4u}) {
            std::uint64_t exhaustive = 1;
            for (std::size_t i = 0; i < cores; ++i) exhaustive *= levels;
            savings.add_row({std::to_string(cores), std::to_string(levels),
                             std::to_string(scaling_combination_count(cores, levels)),
                             std::to_string(exhaustive)});
        }
    }
    savings.print_text(std::cout);
    return 0;
}
