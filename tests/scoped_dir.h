#pragma once

/// @file
/// Test helper shared by the suites that need a scratch directory.

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace mystique {

/// A fresh, empty directory under the system temp directory, removed with
/// everything in it when the scope ends.  Its name carries @p tag, the
/// process id and a per-process counter, so two test processes running at
/// once, and two instances in one process, never share a directory.
struct ScopedDir {
    explicit ScopedDir(const std::string& tag)
    {
        static std::atomic<int> counter{0};
        path = (std::filesystem::temp_directory_path() /
                (tag + "_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter.fetch_add(1))))
                   .string();
        // A directory left by a dead process whose pid was reused.
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScopedDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    ScopedDir(const ScopedDir&) = delete;
    ScopedDir& operator=(const ScopedDir&) = delete;

    std::string path;
};

} // namespace mystique
