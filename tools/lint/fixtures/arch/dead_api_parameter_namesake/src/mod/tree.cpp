#include "mod/tree.h"

namespace fx {

Tree::Tree(int depth) : depth_(depth) {}

int grow(int depth) {
    const int next = depth + 1;
    return next > depth ? next : depth;
}

} // namespace fx

int main() {
    int depth = 0;
    for (int i = 0; i < 3; ++i) depth = fx::grow(depth);
    return depth;
}
