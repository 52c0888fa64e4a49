#include "store_gate.hpp"

namespace ticsim::mem {

namespace detail {
constinit thread_local StoreGate *g_gate = nullptr;
} // namespace detail

StoreGate *
setStoreGate(StoreGate *g)
{
    StoreGate *prev = detail::g_gate;
    detail::g_gate = g;
    return prev;
}

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
