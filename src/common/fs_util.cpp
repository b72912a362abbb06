#include "common/fs_util.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/error.h"
#include "common/fault_injection.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mystique {

namespace {

/// Removes the staged temp file on every exit path that did not publish it —
/// including exceptions thrown *between* the write and the rename (fault
/// injection, bad_alloc).  A crashed process can still leave a turd (nothing
/// runs then), but no *thrown* error may: callers retry writes in a loop, and
/// a turd per failure would accumulate into real disk pressure.
class TmpFileGuard {
  public:
    explicit TmpFileGuard(std::filesystem::path tmp) : tmp_(std::move(tmp)) {}
    ~TmpFileGuard()
    {
        if (!committed_) {
            std::error_code ec;
            std::filesystem::remove(tmp_, ec);
        }
    }
    void commit() { committed_ = true; }

  private:
    std::filesystem::path tmp_;
    bool committed_ = false;
};

/// Flushes the temp file's bytes to stable storage before the publishing
/// rename.  Without this a power loss shortly after the rename can leave the
/// *target* name pointing at zero-length or partial data on some filesystems
/// — exactly the torn file the rename was supposed to make impossible.
void
sync_file(const std::filesystem::path& path)
{
    if (FaultInjection::instance().should_fail("fs.write_fsync"))
        MYST_THROW(MystiqueError,
                   "injected fault: fsync of '" + path.string() + "' failed");
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        MYST_THROW(MystiqueError, "atomic_write_file: cannot reopen '" + path.string() +
                                      "' for fsync");
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0)
        MYST_THROW(MystiqueError, "atomic_write_file: fsync of '" + path.string() +
                                      "' failed");
}

} // namespace

void
atomic_write_file(const std::string& path, std::string_view content)
{
    namespace fs = std::filesystem;
    const fs::path target(path);

    std::error_code ec;
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec); // ec: may already exist

    // Unique per (process, write): two threads — or two processes — staging
    // the same target never collide on the temp name, and each rename
    // publishes a complete file.
    static std::atomic<uint64_t> counter{0};
    const fs::path tmp = target.string() + ".tmp." + std::to_string(::getpid()) + "." +
                         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
    TmpFileGuard guard(tmp);

    if (FaultInjection::instance().should_fail("fs.write_open"))
        MYST_THROW(MystiqueError,
                   "injected fault: cannot open '" + tmp.string() + "' for writing");
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            MYST_THROW(MystiqueError, "atomic_write_file: cannot open '" + tmp.string() +
                                          "' for writing");
        if (FaultInjection::instance().should_fail("fs.write_short")) {
            // Model a disk-full / killed-writer short write: half the bytes
            // land, then the write errors out.  The guard must reap the
            // partial temp file; the target stays untouched.
            out.write(content.data(), static_cast<std::streamsize>(content.size() / 2));
            out.flush();
            MYST_THROW(MystiqueError,
                       "injected fault: short write to '" + tmp.string() + "'");
        }
        out.write(content.data(), static_cast<std::streamsize>(content.size()));
        out.flush();
        if (!out)
            MYST_THROW(MystiqueError,
                       "atomic_write_file: short write to '" + tmp.string() + "'");
    }

    sync_file(tmp);

    if (FaultInjection::instance().should_fail("fs.rename"))
        MYST_THROW(MystiqueError,
                   "injected fault: cannot rename into '" + path + "'");
    fs::rename(tmp, target, ec);
    if (ec)
        MYST_THROW(MystiqueError, "atomic_write_file: cannot rename into '" + path + "'");
    guard.commit();
}

void
append_file(const std::string& path, std::string_view content)
{
    namespace fs = std::filesystem;
    const fs::path target(path);
    std::error_code ec;
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec); // ec: may already exist

    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0)
        MYST_THROW(MystiqueError, "append_file: cannot open '" + path + "'");
    struct Closer {
        int fd;
        ~Closer() { ::close(fd); }
    } closer{fd};

    struct stat st {};
    char last = '\n';
    if (::fstat(fd, &st) != 0 || (st.st_size > 0 && ::pread(fd, &last, 1, st.st_size - 1) != 1))
        MYST_THROW(MystiqueError, "append_file: cannot read the end of '" + path + "'");
    // One write: O_APPEND puts all of it at the end of the file, even when
    // another process appends to the same file.
    const std::string text = (last == '\n' ? "" : "\n") + std::string(content);
    if (::write(fd, text.data(), text.size()) != static_cast<ssize_t>(text.size()) ||
        ::fsync(fd) != 0)
        MYST_THROW(MystiqueError, "append_file: cannot write and sync '" + path + "'");
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        MYST_THROW(ParseError, "cannot open file '" + path + "'");
    if (FaultInjection::instance().should_fail("fs.read"))
        MYST_THROW(ParseError, "injected fault: cannot read file '" + path + "'");
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    if (end < 0)
        MYST_THROW(ParseError, "cannot read file '" + path + "'");
    std::string text(static_cast<std::size_t>(end), '\0');
    in.seekg(0, std::ios::beg);
    in.read(text.data(), static_cast<std::streamsize>(text.size()));
    if (in.gcount() != static_cast<std::streamsize>(text.size()))
        MYST_THROW(ParseError, "cannot read file '" + path + "'");
    return text;
}

bool
quarantine_file(const std::string& path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::rename(path, path + ".bad", ec); // overwrites an earlier .bad on POSIX
    return !ec;
}

} // namespace mystique
