#pragma once

namespace fx {

class Tree {
public:
    explicit Tree(int depth);

    /// Never called: the parameters and locals named `depth` below are
    /// variables, not callers, so the rule fires.
    int depth() const { return depth_; }

private:
    int depth_;
};

int grow(int depth);

} // namespace fx
