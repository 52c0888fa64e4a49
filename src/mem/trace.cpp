#include "trace.hpp"

namespace ticsim::mem {

namespace detail {

constinit thread_local Port g_port;

Port &
port()
{
    return g_port;
}

} // namespace detail

const char *
storeSiteName(StoreSite s)
{
    switch (s) {
      case StoreSite::AppGlobal:
        return "store";
      case StoreSite::UndoPool:
        return "undo-store";
      case StoreSite::CkptHeader:
        return "hdr-store";
    }
    return "?";
}

} // namespace ticsim::mem
