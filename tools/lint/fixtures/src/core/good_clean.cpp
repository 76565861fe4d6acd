// Positive fixture: code that exercises every rule's *sanctioned*
// escape hatch and must lint clean.
//   - exact float comparison through a justified per-line allow
//   - hot-path file whose setup growth sits in a push/pop region
//   - strings and comments containing banned tokens (must be ignored)
// seamap-lint: hot-path
// seamap-lint-fixture: expect-clean

#include <vector>

namespace seamap_fixture {

// A comment mentioning rand() or steady_clock::now() is not a finding,
// and neither is a string literal:
const char* kDocs = "never call rand() or unordered_map iteration here";

struct Context {
    std::vector<double> scratch;

    // seamap-lint: push-allow(hot-path-alloc) -- one-time setup: scratch
    // buffers are sized here and only reused afterwards
    explicit Context(int n) { scratch.resize(static_cast<unsigned>(n), 0.0); }
    // seamap-lint: pop-allow(hot-path-alloc)

    double steady_state_eval(int i) const {
        // No allocation here — the whole point of the hot-path mark.
        return scratch[static_cast<unsigned>(i)] * 2.0;
    }
};

bool design_total_order(double a, double b) {
    // Deterministic total orders need bit-exact comparison; the allow
    // names the rule and says why.
    // seamap-lint: allow(float-eq) -- total-order tie-break must be bit-exact
    return a == b;
}

} // namespace seamap_fixture
