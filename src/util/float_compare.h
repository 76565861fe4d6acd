// The project's one definition of "these two floats are the same
// design metric". Both the Pareto-front dedup (core/dse.cpp) and the
// bound-driven pruning (core/scaling_bounds.h consumers) must agree on
// the comparison to the last bit — a second, slightly different
// epsilon would let a point survive the front in one code path and be
// pruned in the other, breaking the pruned == exhaustive guarantee.
#pragma once

#include <algorithm>
#include <cmath>

namespace seamap {

/// Symmetric relative comparison. Purely relative: the epsilon scales
/// with max(|a|, |b|) and nothing else, so degenerate near-zero
/// metrics (a 0-power design vs. a 1e-12-power design) stay distinct
/// instead of collapsing under an absolute floor. Exact equality
/// (including 0 == 0) still compares equal.
inline bool nearly_equal(double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// The paper's step-3 "equal power" window: a and b count as tied when
/// they agree within the relative tolerance `tie` (the explorer's
/// k_power_tie_tolerance, core/dse.cpp). Shared by the best-design
/// fold and the streamed incumbent so both apply the same rule.
inline bool within_relative_tie(double a, double b, double tie) {
    return std::abs(a - b) <= tie * std::max(a, b);
}

// The two helpers below are the sanctioned spelling of *bit-exact*
// float comparison. The determinism total orders (better_start, the
// Pareto sort, the dominance staircase) and exact sentinel checks
// (0.0 = "power-gated", 0.0 = "no budget") are deliberately not
// tolerant: a tolerance there would let two distinct designs compare
// equal in one code path and distinct in another, breaking the
// pruned == exhaustive and thread-count-invariance guarantees. The
// seamap_lint `float-eq` rule bans raw ==/!= on floats everywhere
// else, so every exact comparison in the tree is greppable by name.

/// Bit-exact equality, visibly on purpose. NaN compares unequal to
/// everything, exactly like the raw operator.
inline bool exactly_equal(double a, double b) {
    return a == b; // the one sanctioned raw float ==
}

/// Bit-exact test against positive zero (also true for -0.0, exactly
/// like `x == 0.0`).
inline bool exactly_zero(double x) {
    return x == 0.0; // the one sanctioned raw float == 0.0
}

} // namespace seamap
