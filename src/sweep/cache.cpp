#include "cache.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "support/logging.hpp"

namespace ticsim::sweep {

std::string
CellResult::encode() const
{
    std::ostringstream os;
    os << (completed ? 1 : 0) << ' ' << (starved ? 1 : 0) << ' '
       << (verified ? 1 : 0) << ' ' << reboots << ' ' << cycles << ' '
       << elapsedNs << ' ' << onTimeNs;
    return os.str();
}

bool
CellResult::decode(const std::string &text)
{
    *this = CellResult{};
    // Every field is unsigned, and >> would wrap "-3" to 2^64 - 3.
    if (text.find('-') != std::string::npos)
        return false;
    std::istringstream is(text);
    int c = 0;
    int s = 0;
    int v = 0;
    if (!(is >> c >> s >> v >> reboots >> cycles >> elapsedNs >>
          onTimeNs)) {
        *this = CellResult{};
        return false;
    }
    completed = c != 0;
    starved = s != 0;
    verified = v != 0;
    return true;
}

ResultCache::ResultCache(std::string dir, std::string salt)
    : dir_(std::move(dir)), salt_(std::move(salt))
{
}

std::string
ResultCache::entryPath(const Cell &cell) const
{
    const std::uint64_t key =
        fnv1a64(cell.canonical() + "|salt=" + salt_);
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.cell",
                  static_cast<unsigned long long>(key));
    return dir_ + "/" + name;
}

bool
ResultCache::lookup(const Cell &cell, CellResult &out) const
{
    if (!enabled())
        return false;
    std::ifstream in(entryPath(cell));
    if (!in)
        return false;
    std::string header;
    std::string config;
    std::string salt;
    std::string result;
    std::string dist;
    if (!std::getline(in, header) || !std::getline(in, config) ||
        !std::getline(in, salt) || !std::getline(in, result) ||
        !std::getline(in, dist))
        return false;
    // Verify the configuration echo: a key collision or stale salt is
    // a miss, never a wrong result.
    if (header != "ticssweep-cache 1" ||
        config != "config " + cell.canonical() ||
        salt != "salt " + salt_)
        return false;
    CellResult r;
    if (result.rfind("result ", 0) != 0 ||
        dist.rfind("dist ", 0) != 0 ||
        !r.decode(result.substr(7)) || !r.simMs.decode(dist.substr(5)))
        return false;
    out = r;
    return true;
}

void
ResultCache::store(const Cell &cell, const CellResult &r) const
{
    if (!enabled())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warn("ticssweep cache: cannot create '%s': %s", dir_.c_str(),
             ec.message().c_str());
        return;
    }
    const std::string path = entryPath(cell);

    // Concurrent *processes* (fleet workers) publish the same entry:
    // each stages to its own O_EXCL-created temp name (pid + an
    // in-process counter), so no two writers ever share a staging
    // file. The final rename() is atomic; a racing winner is harmless
    // because determinism makes every writer's content identical.
    static std::atomic<std::uint64_t> tmpCounter{0};
    std::string tmp;
    int fd = -1;
    for (int attempt = 0; attempt < 8 && fd < 0; ++attempt) {
        tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
              std::to_string(
                  tmpCounter.fetch_add(1, std::memory_order_relaxed));
        fd = ::open(tmp.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    }
    if (fd < 0) {
        warn("ticssweep cache: cannot stage '%s'", tmp.c_str());
        return;
    }
    std::ostringstream body;
    body << "ticssweep-cache 1\n"
         << "config " << cell.canonical() << '\n'
         << "salt " << salt_ << '\n'
         << "result " << r.encode() << '\n'
         << "dist " << r.simMs.encode() << '\n';
    const std::string text = body.str();
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + off, text.size() - off);
        if (n <= 0) {
            warn("ticssweep cache: cannot write '%s'", tmp.c_str());
            ::close(fd);
            std::filesystem::remove(tmp, ec);
            return;
        }
        off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("ticssweep cache: cannot publish '%s': %s", path.c_str(),
             ec.message().c_str());
        std::filesystem::remove(tmp, ec);
    }
}

} // namespace ticsim::sweep
