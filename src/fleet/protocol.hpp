/**
 * @file
 * Wire protocol between the `ticssweep --workers N` coordinator and
 * its re-exec'd `ticssweep --worker` children: length-prefixed
 * newline-JSON frames over the worker's stdin/stdout pipes.
 *
 * A frame is one flat JSON object whose values are all strings:
 *
 *     <decimal payload length>\n{"type":"result","index":"7",...}\n
 *
 * Numeric payloads reuse the repo's existing bit-exact text encodings
 * (Cell::canonical(), CellResult::encode(), Distribution::encode(),
 * sweep::formatSpec()), so the protocol needs no general JSON number
 * handling and a cached, fresh, serial or fleet run of the same cell
 * ships byte-identical bytes. The length prefix makes framing
 * unambiguous even though the payload may embed escaped newlines (the
 * hello frame carries a whole grid-spec file).
 *
 * Frame types:
 *   hello      coordinator -> worker: spec + assigned cell indices +
 *              budgets + cache config + wall deadline + chaos hook
 *   result     worker -> coordinator: one cell's outcome
 *   heartbeat  worker -> coordinator: liveness, ~4 Hz
 *   done       worker -> coordinator: shard finished cleanly
 *   error      worker -> coordinator: fatal worker-side failure
 */

#ifndef TICSIM_FLEET_PROTOCOL_HPP
#define TICSIM_FLEET_PROTOCOL_HPP

#include <cstddef>
#include <map>
#include <string>

namespace ticsim::fleet {

/** One protocol frame: flat string-keyed, string-valued object. */
using Frame = std::map<std::string, std::string>;

/** Serialize @p f to its full wire form (length, newline, JSON,
 *  newline). Deterministic: keys are emitted in sorted order. */
std::string encodeFrame(const Frame &f);

/**
 * Parse one frame's JSON payload (no length prefix). Accepts exactly
 * the flat string-object subset encodeFrame() emits, including \uXXXX
 * and short escapes in strings. @return false with @p err set on
 * anything else.
 */
bool parseFrameJson(const std::string &json, Frame &out,
                    std::string &err);

/**
 * Incremental frame decoder over a pipe's byte stream. feed() bytes
 * as they arrive; next() yields complete frames in order.
 */
class FrameReader
{
  public:
    void feed(const char *data, std::size_t n)
    {
        buf_.append(data, n);
    }

    /**
     * @return true and fill @p frame when a complete frame is
     * buffered. Malformed input (bad length line, bad JSON) returns
     * false with @p err non-empty; the stream is then poisoned and
     * never yields again (a corrupt pipe means a broken worker).
     */
    bool next(Frame &frame, std::string &err);

    bool poisoned() const { return poisoned_; }

  private:
    std::string buf_;
    bool poisoned_ = false;
};

} // namespace ticsim::fleet

#endif // TICSIM_FLEET_PROTOCOL_HPP
