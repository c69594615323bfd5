package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"kmgraph/internal/graph"
)

// Write encodes src as a kmgs/v1 container on w. It makes two passes
// over the source (degree counting, then fill), so peak memory is the
// compact CSR working set — one uint32 per edge plus one int64 per edge
// when weighted — never a materialized graph.Graph. Self-loops,
// out-of-range endpoints, and duplicate edges are errors.
func Write(w io.Writer, src graph.EdgeSource) error {
	return write(w, src, DefaultBlockTarget)
}

// WriteFile writes src as a kmgs container at path (atomically: a temp
// file renamed into place).
func WriteFile(path string, src graph.EdgeSource) error {
	tmp, err := os.CreateTemp(dirOf(path), ".kmgs-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, src); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

func write(w io.Writer, src graph.EdgeSource, blockTarget int) error {
	n := src.N()
	if n < 0 || n > MaxN {
		return fmt.Errorf("store: %w: vertex count %d out of range [0, %d]", ErrLimit, n, MaxN)
	}
	if blockTarget <= 0 {
		blockTarget = DefaultBlockTarget
	}

	// Pass 1: canonical out-degrees, edge count, weight presence.
	if err := src.Reset(); err != nil {
		return err
	}
	deg := make([]uint32, n)
	m := 0
	weighted := false
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		e = e.Canon()
		if err := checkEdge(e, n); err != nil {
			return err
		}
		if deg[e.U] >= maxRowDegree {
			// uint32 degree-table overflow: an error, never a wrap-around.
			return fmt.Errorf("store: %w: row %d exceeds %d edges", ErrLimit, e.U, maxRowDegree)
		}
		deg[e.U]++
		if e.W != 1 {
			weighted = true
		}
		m++
	}

	// Exact-size CSR fill buffers.
	off := make([]int, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + int(deg[u])
	}
	nbr := make([]uint32, m)
	var wt []int64
	if weighted {
		wt = make([]int64, m)
	}
	cur := make([]int, n)
	copy(cur, off[:n])

	// Pass 2: fill rows.
	if err := src.Reset(); err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		e, err := src.Next()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("store: source shrank between passes (%d of %d edges)", i, m)
			}
			return err
		}
		e = e.Canon()
		if err := checkEdge(e, n); err != nil {
			return err
		}
		c := cur[e.U]
		if c >= off[e.U+1] {
			return fmt.Errorf("store: source changed between passes (row %d overflow)", e.U)
		}
		nbr[c] = uint32(e.V)
		if weighted {
			wt[c] = e.W
		}
		cur[e.U] = c + 1
	}
	if e, err := src.Next(); err != io.EOF {
		if err != nil {
			return err
		}
		return fmt.Errorf("store: source grew between passes (extra edge %v)", e)
	}

	// Sort each row ascending (carrying weights) and reject duplicates.
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		row := nbr[lo:hi]
		if weighted {
			wrow := wt[lo:hi]
			sort.Sort(&rowSorter{nbr: row, wt: wrow})
		} else if !sorted(row) {
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		}
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return fmt.Errorf("store: duplicate edge (%d,%d)", u, row[i])
			}
		}
	}

	// Encode blocks: whole rows, closing at the first row boundary past
	// blockTarget bytes.
	var (
		payload  []byte
		index    []byte
		blockBuf []byte
		firstRow = 0
		rows     = 0
		nblocks  = 0
		varbuf   [binary.MaxVarintLen64]byte
	)
	closeBlock := func() error {
		if rows == 0 {
			return nil
		}
		if len(blockBuf) > maxBlockBytes {
			// A single row can exceed blockTarget (blocks close only at row
			// boundaries); it must still fit the index's uint32 byte length.
			return fmt.Errorf("store: %w: block at row %d is %d bytes (max %d)",
				ErrLimit, firstRow, len(blockBuf), maxBlockBytes)
		}
		var ent [indexEntryLen]byte
		putU32(ent[0:], uint32(firstRow))
		putU32(ent[4:], uint32(rows))
		putU32(ent[8:], uint32(len(blockBuf)))
		putU32(ent[12:], crcOf(blockBuf))
		index = append(index, ent[:]...)
		payload = append(payload, blockBuf...)
		blockBuf = blockBuf[:0]
		nblocks++
		rows = 0
		return nil
	}
	for u := 0; u < n; u++ {
		if rows == 0 {
			firstRow = u
		}
		prev := uint32(u)
		for i := off[u]; i < off[u+1]; i++ {
			v := nbr[i]
			k := binary.PutUvarint(varbuf[:], uint64(v-prev))
			blockBuf = append(blockBuf, varbuf[:k]...)
			prev = v
			if weighted {
				k = binary.PutUvarint(varbuf[:], zigzag(wt[i]))
				blockBuf = append(blockBuf, varbuf[:k]...)
			}
		}
		rows++
		if len(blockBuf) >= blockTarget {
			if err := closeBlock(); err != nil {
				return err
			}
		}
	}
	if err := closeBlock(); err != nil {
		return err
	}

	// Emit: header, degree table, block index, blocks.
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [headerLen]byte
	copy(hdr[0:], Magic)
	putU32(hdr[4:], Version)
	flags := uint64(0)
	if weighted {
		flags |= flagWeighted
	}
	putU64(hdr[8:], flags)
	putU64(hdr[16:], uint64(n))
	putU64(hdr[24:], uint64(m))
	putU32(hdr[32:], uint32(blockTarget))
	putU32(hdr[36:], uint32(nblocks))
	putU32(hdr[40:], crcOf(hdr[:40]))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	degBytes := make([]byte, 4*n+4)
	for u, d := range deg {
		putU32(degBytes[4*u:], d)
	}
	putU32(degBytes[4*n:], crcOf(degBytes[:4*n]))
	if _, err := bw.Write(degBytes); err != nil {
		return err
	}
	index = append(index, 0, 0, 0, 0)
	putU32(index[len(index)-4:], crcOf(index[:len(index)-4]))
	if _, err := bw.Write(index); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

func checkEdge(e graph.Edge, n int) error {
	if e.U == e.V {
		return fmt.Errorf("store: self-loop at %d", e.U)
	}
	if e.U < 0 || e.V >= n {
		return fmt.Errorf("store: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
	}
	return nil
}

func sorted(row []uint32) bool {
	for i := 1; i < len(row); i++ {
		if row[i] < row[i-1] {
			return false
		}
	}
	return true
}

// rowSorter sorts one CSR row by neighbor, carrying weights.
type rowSorter struct {
	nbr []uint32
	wt  []int64
}

func (r *rowSorter) Len() int           { return len(r.nbr) }
func (r *rowSorter) Less(i, j int) bool { return r.nbr[i] < r.nbr[j] }
func (r *rowSorter) Swap(i, j int) {
	r.nbr[i], r.nbr[j] = r.nbr[j], r.nbr[i]
	r.wt[i], r.wt[j] = r.wt[j], r.wt[i]
}
