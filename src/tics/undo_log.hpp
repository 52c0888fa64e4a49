/**
 * @file
 * Fixed-capacity non-volatile undo log (paper Section 3.1.2).
 *
 * Writes that land outside the working stack (global variables and
 * pointer targets) save the original bytes here before modification.
 * A successful checkpoint clears the log; on reboot the log is rolled
 * back, restoring memory to its state at the last checkpoint. The log
 * is fixed-size, so a full log forces a checkpoint — this is what
 * bounds TICS's memory overhead and eliminates whole-memory
 * checkpointing for pointer programs.
 *
 * Every record carries a CRC-32 sealing its entry fields and saved
 * bytes, and the record stores themselves are gated NV stores (see
 * mem/trace.hpp): a record torn by a power failure mid-append or
 * corrupted by a retention bit flip fails validation at rollback and
 * is skipped (and counted) instead of spraying garbage over the
 * target. The entry-table bump that publishes a record is the last
 * step of append, so a tear before it leaves the log unchanged.
 */

#ifndef TICSIM_TICS_UNDO_LOG_HPP
#define TICSIM_TICS_UNDO_LOG_HPP

#include <cstdint>

#include "mem/nvram.hpp"
#include "support/stats.hpp"

namespace ticsim::tics {

/**
 * Undo log stored in the FRAM arena: an entry table (target pointer +
 * length + pool offset) and a byte pool of original values.
 */
class UndoLog
{
  public:
    /**
     * @param ram Arena to allocate from.
     * @param name Region-name prefix.
     * @param poolBytes Byte-pool capacity.
     * @param maxEntries Entry-table capacity.
     */
    UndoLog(mem::NvRam &ram, const std::string &name,
            std::uint32_t poolBytes, std::uint32_t maxEntries);

    /** Would appending @p bytes overflow the log? */
    bool wouldOverflow(std::uint32_t bytes) const;

    /**
     * Save the current contents of [p, p+bytes) as an undo record.
     * The caller must have checked wouldOverflow() first.
     */
    void append(void *p, std::uint32_t bytes);

    /**
     * Write every record's original bytes back, newest first, leaving
     * memory as it was when the log was last cleared.
     * @return number of records applied.
     */
    std::uint32_t rollback();

    /**
     * Roll back only records appended after @p watermark (used by the
     * @expires/catch exception path), truncating the log to it.
     */
    std::uint32_t rollbackTo(std::uint32_t watermark);

    /** Drop all records (after a successful checkpoint commit). */
    void clear();

    std::uint32_t entryCount() const { return count_; }
    std::uint32_t usedBytes() const { return poolUsed_; }
    std::uint32_t poolCapacity() const { return poolBytes_; }

    /** Records that failed CRC validation during rollback and were
     *  skipped (torn appends / retention bit flips), cumulative. */
    std::uint32_t corruptSkipped() const { return corrupt_; }

    /** Sum of record sizes in [watermark, end) (for cost charging). */
    std::uint32_t bytesSince(std::uint32_t watermark) const;

    /**
     * Host-side cursor state for snapshot/restore (the records and
     * pool bytes live in NV and are restored by the write journal;
     * these cursors model registers a reboot would rebuild but a
     * mid-run restore must reinstate directly).
     */
    struct Cursor {
        std::uint32_t count = 0;
        std::uint32_t poolUsed = 0;
        std::uint32_t corrupt = 0;
    };

    Cursor cursor() const { return Cursor{count_, poolUsed_, corrupt_}; }
    void
    setCursor(const Cursor &c)
    {
        count_ = c.count;
        poolUsed_ = c.poolUsed;
        corrupt_ = c.corrupt;
    }

  private:
    struct Entry {
        std::uint8_t *target;
        std::uint32_t bytes;
        std::uint32_t poolOff;
        std::uint32_t crc; ///< over the fields above + saved bytes
    };

    /** CRC sealing @p e's fields and the @p saved byte range. */
    static std::uint32_t entryCrc(const Entry &e,
                                  const std::uint8_t *saved);

    std::uint32_t poolBytes_;
    std::uint32_t maxEntries_;
    std::uint8_t *pool_;    // in NvRam
    Entry *entries_;        // in NvRam
    std::uint32_t count_ = 0;
    std::uint32_t poolUsed_ = 0;
    std::uint32_t corrupt_ = 0;
};

} // namespace ticsim::tics

#endif // TICSIM_TICS_UNDO_LOG_HPP
