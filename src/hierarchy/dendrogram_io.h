// Binary codec for community hierarchies.
//
// Building a hierarchy is the expensive part of engine construction on large
// graphs; persisting it alongside the HIMOR index lets a service restart
// without re-clustering. The payload stores the merge structure (per
// internal vertex, its children); depths and leaf intervals are recomputed
// on decode, so a decoded dendrogram is bit-identical in behaviour to the
// original. The codec is buffer-to-buffer: the epoch snapshot container
// (storage/epoch_snapshot.h) embeds it and owns integrity with per-section
// CRC32C checksums.

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
