#include "trace.hpp"

namespace ticsim::mem {

namespace detail {
constinit thread_local AccessSink *g_sink = nullptr;
} // namespace detail

AccessSink *
setAccessSink(AccessSink *s)
{
    AccessSink *prev = detail::g_sink;
    detail::g_sink = s;
    return prev;
}

} // namespace ticsim::mem
