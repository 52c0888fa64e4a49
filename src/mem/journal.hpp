/**
 * @file
 * Write journal: dirty-delta pre-image log for snapshot/fork.
 *
 * The failure-space explorer (src/fault/explore.*) restores the
 * simulator to an earlier decision point in place instead of re-running
 * from boot. Host-side Board state is cheap to copy, but the 512 KiB
 * NV arena is not — so instead of imaging the arena per decision, an
 * installed WriteJournal records the *pre-image* of every modeled NV
 * write as it happens. Rolling back to a decision is then
 * undoTo(mark): apply the recorded pre-images newest-first and
 * truncate. Per-decision cost is proportional to bytes written since
 * the mark, not to arena size.
 *
 * Installation mirrors mem::AccessSink (trace.hpp): a thread-local
 * slot, a null check on the default path, and an RAII scope. When no
 * journal is installed — every normal benchmark / test run — each
 * journalNote() is a single null-pointer test; the gatedStore
 * null-gate fast path is untouched because gated stores are journaled
 * from inside the explorer's own StoreGate, not from gatedStore
 * itself.
 *
 * Coverage contract: every modeled-NV mutation that does not go
 * through gatedStore must call journalNote(dst, bytes) immediately
 * before writing. The current inventory: undo-log rollback copies,
 * checkpoint stack-image captures and slot invalidation, the
 * MementOS-style globals snapshot copies, task-channel
 * privatize/commit stores, and fault-injected bit flips. Writes to
 * the fiber stack region are exempt — the explorer re-arms the stack
 * from a register/stack image or a fresh boot, never from the
 * journal.
 */

#ifndef TICSIM_MEM_JOURNAL_HPP
#define TICSIM_MEM_JOURNAL_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ticsim::mem {

/** Pre-image log with stack-discipline rollback. */
class WriteJournal
{
  public:
    /** Record the current contents of [dst, dst+bytes) so a later
     *  undoTo() past this point restores them. Call *before* the
     *  write. Zero-byte notes are dropped. */
    void note(const void *dst, std::size_t bytes);

    /** Position marker: everything recorded after a mark() is undone
     *  by undoTo() with that marker. */
    std::size_t mark() const { return recs_.size(); }

    /** Roll NV back to the state at @p m: apply pre-images
     *  newest-first, then truncate the log to @p m. */
    void undoTo(std::size_t m);

    /** Drop all records without applying them. */
    void reset();

    std::size_t records() const { return recs_.size(); }
    std::size_t bytesHeld() const { return pool_.size(); }

  private:
    struct Rec {
        std::uintptr_t dst = 0;
        std::size_t poolOff = 0;
        std::uint32_t bytes = 0;
    };

    std::vector<Rec> recs_;
    std::vector<std::uint8_t> pool_;
};

namespace detail {
/** Thread-local like the trace sink: one journal per simulated Board,
 *  and sweep workers on other threads never see it. */
extern constinit thread_local WriteJournal *g_journal;
} // namespace detail

/** Install @p j as the calling thread's journal; returns the previous
 *  one (may be null). Pass nullptr to disable journaling. */
WriteJournal *setWriteJournal(WriteJournal *j);

/** Currently installed journal, or nullptr. */
inline WriteJournal *
writeJournal()
{
    return detail::g_journal;
}

/** Record a pre-image if a journal is installed; a null test
 *  otherwise. Call immediately before any raw modeled-NV write. */
inline void
journalNote(const void *dst, std::size_t bytes)
{
    if (detail::g_journal)
        detail::g_journal->note(dst, bytes);
}

/** Mark of the installed journal (0 when none): board::Snapshot pairs
 *  this with its host-state capture so restore() can roll NV back. */
inline std::size_t
journalMark()
{
    return detail::g_journal ? detail::g_journal->mark() : 0;
}

/** Roll the installed journal (if any) back to @p m. */
inline void
journalUndoTo(std::size_t m)
{
    if (detail::g_journal)
        detail::g_journal->undoTo(m);
}

/** RAII journal installation for the scope of one explored run. */
class ScopedWriteJournal
{
  public:
    explicit ScopedWriteJournal(WriteJournal *j)
        : prev_(setWriteJournal(j))
    {
    }
    ~ScopedWriteJournal() { setWriteJournal(prev_); }

    ScopedWriteJournal(const ScopedWriteJournal &) = delete;
    ScopedWriteJournal &operator=(const ScopedWriteJournal &) = delete;

  private:
    WriteJournal *prev_;
};

} // namespace ticsim::mem

#endif // TICSIM_MEM_JOURNAL_HPP
