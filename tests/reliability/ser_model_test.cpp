#include "reliability/ser_model.h"

#include <gtest/gtest.h>

#include <limits>

namespace seamap {
namespace {

TEST(SerModel, ReferencePointPerBitSecond) {
    const SerModel model;
    // 1e-9 SEU/bit/cycle at 200 MHz -> 0.2 SEU/bit/s at 1 V.
    EXPECT_NEAR(model.ser_per_bit_second(1.0), 0.2, 1e-12);
}

TEST(SerModel, PaperQuoteOneSeuPer10msPerKbit) {
    // The paper glosses SER 1e-9 as "1 SEU per 10 ms for 1 kbit
    // register bank" (at the 100 MHz operating point): check the order
    // of magnitude: 1000 bits * 0.01 s * rate(V) ~ O(1).
    const SerModel model;
    const double seus = 1000.0 * 0.01 * model.ser_per_bit_second(0.58);
    EXPECT_GT(seus, 1.0);
    EXPECT_LT(seus, 5.0);
}

TEST(SerModel, VoltageAccelerationCalibratedToObservation3) {
    const SerModel model;
    // k = ln(1.25)/0.42: dropping 1.0 V -> 0.58 V raises the rate 1.25x.
    EXPECT_NEAR(model.ser_per_bit_second(0.58) / model.ser_per_bit_second(1.0), 1.25, 1e-4);
}

TEST(SerModel, LambdaPerCycleAtReferenceIsSerRef) {
    // Per bit and cycle: the per-second rate over the clock.
    const SerModel model;
    EXPECT_NEAR(model.ser_per_bit_second(1.0) / 200e6, 1e-9, 1e-18);
}

TEST(SerModel, Observation3PerCycleRatioIs2_5) {
    // Scaling 1 -> 2 (Table I): per-cycle SER grows by 2 (frequency)
    // x 1.25 (voltage) = 2.5 — the paper's Fig. 3(b) -> (c) jump.
    const SerModel model;
    const double nominal = model.ser_per_bit_second(1.0) / 200e6;
    const double scaled = model.ser_per_bit_second(0.58) / 100e6;
    EXPECT_NEAR(scaled / nominal, 2.5, 1e-3);
}

TEST(SerModel, LowerVoltageAlwaysWorse) {
    const SerModel model;
    EXPECT_GT(model.ser_per_bit_second(0.44), model.ser_per_bit_second(0.58));
    EXPECT_GT(model.ser_per_bit_second(0.58), model.ser_per_bit_second(1.0));
    EXPECT_LT(model.ser_per_bit_second(1.2), model.ser_per_bit_second(1.0));
}

TEST(SerModel, CustomParameters) {
    SerParams params;
    params.ser_ref_per_bit_cycle = 2e-9;
    params.voltage_exponent_k = 0.0; // voltage-independent
    const SerModel model(params);
    EXPECT_NEAR(model.ser_per_bit_second(0.5), model.ser_per_bit_second(1.0), 1e-15);
    EXPECT_NEAR(model.ser_per_bit_second(1.0) / 200e6, 2e-9, 1e-18);
}

TEST(SerModel, Validation) {
    SerParams bad;
    bad.ser_ref_per_bit_cycle = -1.0;
    EXPECT_THROW(SerModel{bad}, std::invalid_argument);
    bad = SerParams{};
    bad.ref_vdd = 0.0;
    EXPECT_THROW(SerModel{bad}, std::invalid_argument);
    bad = SerParams{};
    bad.voltage_exponent_k = -0.1;
    EXPECT_THROW(SerModel{bad}, std::invalid_argument);
    // Non-finite parameters would make every rate non-finite.
    bad = SerParams{};
    bad.ser_ref_per_bit_cycle = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(SerModel{bad}, std::invalid_argument);
    bad = SerParams{};
    bad.ref_vdd = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(SerModel{bad}, std::invalid_argument);
    bad = SerParams{};
    bad.voltage_exponent_k = std::numeric_limits<double>::infinity();
    EXPECT_THROW(SerModel{bad}, std::invalid_argument);
    const SerModel model;
    EXPECT_THROW((void)model.ser_per_bit_second(0.0), std::invalid_argument);
    EXPECT_THROW((void)model.ser_per_bit_second(std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
}

} // namespace
} // namespace seamap
