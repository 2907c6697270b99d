// Canonical content hash of a netlist — the cache-key primitive of the
// flow engine.
//
// Two netlists get the same hash iff they describe the same circuit in
// the same module: same module name, same primary ports, and the same
// set of (uniquely named) cells with identical kinds, attributes
// (init/p0/p1/group), payload contents, and pin-to-net-name connectivity.
// The hash is *representation independent*: cell/net insertion order, id
// numbering, tombstone positions, payload-table indices and port
// declaration order do not affect it. It is *content sensitive*: renaming
// a net, rewiring a pin, flipping an init value or editing one ROM word
// all change it.
//
// The engine treats hash equality as content equality (256-bit digest;
// see base/sha256.h), so a cached artifact answers for every
// representation of the same canonical content.
#pragma once

#include "base/sha256.h"
#include "netlist/netlist.h"

namespace desyn::nl {

/// Canonical hash of `nl` as described above. The first call costs one
/// sort of the live cell names plus one SHA-256 pass; later calls on
/// unchanged content return the netlist's memo (netlist.h).
Hash256 content_hash(const Netlist& nl);

/// Hash of the storage-cell layout (id, name, kind, macro params) in id
/// order — unlike content_hash, representation dependent on purpose: the
/// legacy partition strategies read exactly this, and a cached Partition's
/// member ids are valid in any netlist with the same census. Memoized
/// like content_hash.
Hash256 census_hash(const Netlist& nl);

/// Digests content_hash and census_hash have computed in this process
/// (memo hits excluded) — what tests count to pin that a repeat proof or
/// a warm submission hashes nothing.
uint64_t hash_computations();

}  // namespace desyn::nl
