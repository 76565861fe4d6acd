#pragma once

namespace fx {

class Base {
public:
    virtual ~Base() = default;
    virtual int read() const = 0;
};

class Meter : public Base {
public:
    Meter();
    explicit Meter(int scale);
    ~Meter() override;
    Meter(const Meter&) = delete;
    Meter& operator=(const Meter&) = delete;
    bool operator==(const Meter& other) const;

    int read() const override;
    int oracle() const;
    static int from_example(int x);
    static int from_wallbench(int x);

private:
    int unused_helper() const;
    int scale_ = 1;
};

int own_module(int x);
int passed_by_name(int x);

} // namespace fx
