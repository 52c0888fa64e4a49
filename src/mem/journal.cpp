#include "journal.hpp"

#include <cstring>

#include "support/logging.hpp"

namespace ticsim::mem {

namespace detail {
constinit thread_local WriteJournal *g_journal = nullptr;
} // namespace detail

WriteJournal *
setWriteJournal(WriteJournal *j)
{
    WriteJournal *prev = detail::g_journal;
    detail::g_journal = j;
    return prev;
}

void
WriteJournal::note(const void *dst, std::size_t bytes)
{
    if (bytes == 0)
        return;
    Rec r;
    r.dst = reinterpret_cast<std::uintptr_t>(dst);
    r.poolOff = pool_.size();
    r.bytes = static_cast<std::uint32_t>(bytes);
    const auto *src = static_cast<const std::uint8_t *>(dst);
    pool_.insert(pool_.end(), src, src + bytes);
    recs_.push_back(r);
}

void
WriteJournal::undoTo(std::size_t m)
{
    TICSIM_ASSERT(m <= recs_.size(), "journal undoTo past the head");
    for (std::size_t i = recs_.size(); i > m; --i) {
        const Rec &r = recs_[i - 1];
        std::memcpy(reinterpret_cast<void *>(r.dst),
                    pool_.data() + r.poolOff, r.bytes);
    }
    if (m == 0) {
        recs_.clear();
        pool_.clear();
        return;
    }
    const Rec &keep = recs_[m - 1];
    pool_.resize(keep.poolOff + keep.bytes);
    recs_.resize(m);
}

void
WriteJournal::reset()
{
    recs_.clear();
    pool_.clear();
}

} // namespace ticsim::mem
