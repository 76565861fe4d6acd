#include "mod/meter.h"

namespace fx {

Meter::Meter() = default;
Meter::Meter(int scale) : scale_(scale) {}
Meter::~Meter() = default;
bool Meter::operator==(const Meter& other) const { return scale_ == other.scale_; }
int Meter::read() const { return own_module(scale_); }
int Meter::oracle() const { return scale_; }
int Meter::from_example(int x) { return x; }
int Meter::from_wallbench(int x) { return x; }
int Meter::unused_helper() const { return 0; }

int own_module(int x) {
    int (*f)(int) = passed_by_name;
    return f(x);
}

int passed_by_name(int x) { return x + 1; }

} // namespace fx
