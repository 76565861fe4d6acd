#pragma once

#include <string>

namespace fx {

class Store {
public:
    explicit Store(std::string path);

    /// Never called: the only other `remove` in the tree is
    /// std::remove, which is not a caller, so the rule fires.
    void remove();

    void clear();

private:
    std::string path_;
};

} // namespace fx
