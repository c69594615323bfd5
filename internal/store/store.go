// Package store is the out-of-core graph container: a versioned binary
// format ("kmgs/v1") holding an n-vertex undirected graph as a
// compressed sparse-row edge section, written once by a streaming Writer
// and served by an mmap-backed zero-copy Reader. It exists so clusters
// can load million-vertex graphs shard-direct — each machine's adjacency
// filled straight from the stream — without ever materializing a
// coordinator-side graph.Graph.
//
// # Format (kmgs/v1, all integers little-endian)
//
//	header (44 bytes)
//	  0   magic "KMGS"
//	  4   uint32 version        (1)
//	  8   uint64 flags          (bit 0: weighted)
//	  16  uint64 n              (vertex count)
//	  24  uint64 m              (edge count)
//	  32  uint32 blockTarget    (writer's soft block size in bytes)
//	  36  uint32 numBlocks
//	  40  uint32 crc32(IEEE) of bytes [0, 40)
//	degree table (4n + 4 bytes)
//	  n x uint32: canonical out-degree of row u — the number of stored
//	  edges {u, v} with u < v — followed by crc32 of the table
//	block index (16·numBlocks + 4 bytes)
//	  numBlocks x {uint32 firstRow, uint32 rowCount, uint32 byteLen,
//	  uint32 crc32(block payload)}, followed by crc32 of the index
//	edge blocks (concatenated)
//	  each block covers whole rows [firstRow, firstRow+rowCount). Row u
//	  holds deg[u] entries, neighbors strictly increasing:
//	    uvarint(v0 - u) uvarint(v1 - v0) ... — deltas are always >= 1,
//	  and, when the weighted flag is set, each delta is followed by a
//	  zig-zag varint of the edge weight.
//
// Strictly increasing rows make duplicate edges unrepresentable, and
// every consumer gets edges in canonical (U, V) order — the property the
// shard-direct loader exploits to fill per-machine adjacency pre-sorted.
// Per-section and per-block checksums mean truncation and corruption are
// detected errors, never panics (see the reader fuzz test).
package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

const (
	// Magic identifies a kmgs container.
	Magic = "KMGS"
	// Version is the current format version.
	Version = 1
	// headerLen is the byte length of the fixed header including its CRC.
	headerLen = 44
	// flagWeighted marks a store whose edges carry explicit weights; an
	// unweighted store reads back with all weights 1.
	flagWeighted = 1 << 0
	// DefaultBlockTarget is the writer's soft block payload size: blocks
	// close at the first row boundary past this many bytes, so a block
	// is the checksum/readahead granule, not a row-splitting unit.
	DefaultBlockTarget = 1 << 16
	// indexEntryLen is the byte length of one block-index entry.
	indexEntryLen = 16
	// MaxN bounds the vertex count so degrees and rows fit the uint32
	// tables; a generated job source (dist) keeps to it too.
	MaxN = 1 << 31
	// maxBlockBytes bounds one block's payload so its byte length fits the
	// uint32 index entry.
	maxBlockBytes = 1<<32 - 1
)

// maxRowDegree bounds one row's canonical out-degree so it fits the
// uint32 degree table. A variable (not a const) so the overflow branch is
// testable without writing 2^32 edges.
var maxRowDegree uint32 = 1<<32 - 1

// ErrLimit tags size-bound violations: a vertex count beyond MaxN, a row
// whose canonical out-degree overflows the uint32 degree table, or a
// block too large for its uint32 index entry. Both the Writer and the
// Reader report these as wrapped ErrLimit errors (errors.Is) instead of
// silently truncating to the narrower on-disk integer.
var ErrLimit = errors.New("size limit exceeded")

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// zigzag encodes a signed weight as an unsigned varint payload.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
