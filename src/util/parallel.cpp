#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace seamap {

std::size_t hardware_threads() {
    return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t resolve_thread_count(std::size_t configured) {
    return configured == 0 ? hardware_threads() : configured;
}

void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t)>& f) {
    if (count == 0) return;
    const std::size_t workers = std::min(resolve_thread_count(threads), count);
    if (workers == 1) {
        for (std::size_t i = 0; i < count; ++i) f(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    {
        std::vector<std::jthread> team;
        team.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            team.emplace_back([&] {
                try {
                    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1))
                        f(i);
                } catch (...) {
                    std::lock_guard lock(error_mutex);
                    if (!first_error) first_error = std::current_exception();
                }
            });
        }
    } // joins every thread
    if (first_error) std::rethrow_exception(first_error);
}

} // namespace seamap
