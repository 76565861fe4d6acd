// Soft-error-rate model. The paper quotes an SER in "SEUs per bit per
// cycle" (1e-9 in the evaluation) and notes that lowering Vdd raises
// the SER exponentially (Chandra & Aitken [2]); its Observation 3
// calibrates the law: scaling every core from level 1 (200 MHz, 1 V)
// to level 2 (100 MHz, 0.58 V) multiplies the SEUs experienced by
// ~2.5x while execution time doubles.
//
// We model the physical rate in the *time* domain, where it is
// frequency-independent:
//     ser_time(V) = ser_ref * f_ref * exp(k * (V_ref - V))   [SEU/bit/s]
// and derive the per-cycle rate on a core clocked at f:
//     lambda_cycle(V, f) = ser_time(V) / f
// so halving f doubles lambda_cycle (each cycle is exposed twice as
// long). With k = ln(1.25) / (1.0 - 0.58) ~= 0.5313 / V, the 1->2
// transition gives exactly 2 (frequency) x 1.25 (voltage) = 2.5x more
// SEUs per cycle — the paper's Observation 3.
#pragma once

#include "arch/scaling_table.h"

namespace seamap {

/// Parameters of the SER law; defaults reproduce the paper.
struct SerParams {
    /// Reference SER in SEUs per bit per cycle at (ref_vdd, ref_f_mhz).
    double ser_ref_per_bit_cycle = 1e-9;
    double ref_vdd = 1.0;
    double ref_f_mhz = 200.0;
    /// Exponential voltage acceleration, 1/volt.
    double voltage_exponent_k = 0.53131; // ln(1.25) / 0.42
};

/// SER evaluator bound to one parameter set.
class SerModel {
public:
    SerModel() : SerModel(SerParams{}) {}
    explicit SerModel(SerParams params);

    const SerParams& params() const { return params_; }

    /// SEUs per bit per second at supply voltage `vdd` (frequency-
    /// independent physical rate).
    double ser_per_bit_second(double vdd) const;

private:
    SerParams params_;
};

} // namespace seamap
