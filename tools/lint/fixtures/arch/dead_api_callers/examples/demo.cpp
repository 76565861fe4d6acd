#include "mod/meter.h"

int main() {
    const fx::Meter meter(3);
    const fx::Base& base = meter;
    return fx::Meter::from_example(base.read());
}
