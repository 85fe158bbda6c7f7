// Package registers models the stateful register arrays PrintQueue allocates
// on the switch ASIC, including the Figure-8 decomposition of the register
// index:
//
//	| 1 bit dp-query | 1 bit periodic flip | q port-prefix bits | k index bits |
//
// A File holds the backing storage for one logical array across all
// (dp, flip, port) partitions; views into a partition are plain slices, so
// the data-plane algorithms read and write them exactly as P4 register
// actions would. The control plane's frozen reads, and the cost the paper's
// Figure 13 budgets for them, are package control's.
package registers

import "fmt"

// Layout describes the index decomposition of a register file.
type Layout struct {
	// PortBits is q: log2 of the number of per-port partitions. The paper
	// rounds the number of activated ports up to the nearest power of two,
	// r(#ports) = 2^q.
	PortBits int
	// IndexBits is k: log2 of the number of cells per partition.
	IndexBits int
}

// PortBitsFor returns the number of port-prefix bits q needed for n active
// ports: ceil(log2(n)), minimum 0.
func PortBitsFor(n int) int {
	q := 0
	for 1<<q < n {
		q++
	}
	return q
}

// Partitions returns r(#ports) = 2^q.
func (l Layout) Partitions() int { return 1 << l.PortBits }

// PartitionSize returns the number of cells in one (dp, flip, port)
// partition: 2^k.
func (l Layout) PartitionSize() int { return 1 << l.IndexBits }

// TotalEntries returns the full register array length: 2^(2+q+k). The
// leading two bits are the dp-query and periodic-flip selectors.
func (l Layout) TotalEntries() int { return 1 << (2 + l.PortBits + l.IndexBits) }

// Compose builds a full register index from the selector bits, the port
// prefix, and the cell index, exactly as Figure 8 lays them out.
func (l Layout) Compose(dp, flip bool, port, idx int) int {
	if port < 0 || port >= l.Partitions() {
		panic(fmt.Sprintf("registers: port prefix %d out of range (q=%d)", port, l.PortBits))
	}
	if idx < 0 || idx >= l.PartitionSize() {
		panic(fmt.Sprintf("registers: index %d out of range (k=%d)", idx, l.IndexBits))
	}
	r := idx | port<<l.IndexBits
	if flip {
		r |= 1 << (l.PortBits + l.IndexBits)
	}
	if dp {
		r |= 1 << (1 + l.PortBits + l.IndexBits)
	}
	return r
}

// Decompose splits a full register index back into its components.
func (l Layout) Decompose(r int) (dp, flip bool, port, idx int) {
	idx = r & (l.PartitionSize() - 1)
	r >>= l.IndexBits
	port = r & (l.Partitions() - 1)
	r >>= l.PortBits
	flip = r&1 == 1
	dp = r&2 == 2
	return dp, flip, port, idx
}

// File is a register array of entries E with Figure-8 partitioning. The
// zero value is not usable; construct with NewFile.
type File[E any] struct {
	layout Layout
	cells  []E
}

// NewFile allocates a register file with the given layout.
func NewFile[E any](layout Layout) *File[E] {
	return &File[E]{
		layout: layout,
		cells:  make([]E, layout.TotalEntries()),
	}
}

// Layout returns the file's index layout.
func (f *File[E]) Layout() Layout { return f.layout }

// View returns the (dp, flip, port) partition as a mutable slice of length
// 2^k aliasing the backing store. Data-plane code indexes it with the k-bit
// cell index.
func (f *File[E]) View(dp, flip bool, port int) []E {
	base := f.layout.Compose(dp, flip, port, 0)
	return f.cells[base : base+f.layout.PartitionSize() : base+f.layout.PartitionSize()]
}
