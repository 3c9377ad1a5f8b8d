// Binary codec for community hierarchies.
//
// Building a hierarchy is the expensive part of engine construction on large
// graphs; persisting it alongside the HIMOR index lets a service restart
// without re-clustering. The payload is the leaf count and the tree's three
// arrays as the Dendrogram holds them — parent (u32), child offsets (u64)
// and children (u32) — as aligned arrays (common/binary_io.h). The decoder
// adopts them in place and Dendrogram::FromArrays validates the tree and
// recomputes depths and leaf intervals, so a decoded dendrogram is
// bit-identical in behaviour to the original. The codec is
// buffer-to-buffer: the epoch snapshot container (storage/epoch_snapshot.h)
// embeds it and owns integrity with per-section CRC32C checksums.

#ifndef COD_HIERARCHY_DENDROGRAM_IO_H_
#define COD_HIERARCHY_DENDROGRAM_IO_H_

#include "common/binary_io.h"
#include "common/status.h"
#include "hierarchy/dendrogram.h"

namespace cod {

// DeserializeDendrogram validates structure: corrupt bytes produce a
// Status, never a crash or an invalid Dendrogram.
void SerializeDendrogram(const Dendrogram& dendrogram,
                         BinaryBufferWriter& out);
Result<Dendrogram> DeserializeDendrogram(BinarySpanReader& in);

}  // namespace cod

#endif  // COD_HIERARCHY_DENDROGRAM_IO_H_
