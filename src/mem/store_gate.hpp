/**
 * @file
 * Former names of the gated-store interface. The store gate is now
 * AccessSink::store() on the NV port (trace.hpp); hostbench/ still
 * names the old types and cannot change outside a benchmark change,
 * so these two aliases remain for it alone.
 */

#ifndef TICSIM_MEM_STORE_GATE_HPP
#define TICSIM_MEM_STORE_GATE_HPP

#include "mem/trace.hpp"

namespace ticsim::mem {

using StoreGate = AccessSink;
using ScopedGate = ScopedSink;

} // namespace ticsim::mem

#endif // TICSIM_MEM_STORE_GATE_HPP
