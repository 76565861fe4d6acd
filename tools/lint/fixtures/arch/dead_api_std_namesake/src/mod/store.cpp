#include "mod/store.h"

#include <cstdio>
#include <utility>

namespace fx {

Store::Store(std::string path) : path_(std::move(path)) {}

void Store::remove() { clear(); }

void Store::clear() { std::remove(path_.c_str()); }

} // namespace fx

int main() {
    fx::Store store("scratch.txt");
    store.clear();
    return 0;
}
