package registers

import (
	"testing"
	"testing/quick"
)

func TestPortBitsFor(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {10, 4}, {16, 4},
	}
	for _, tt := range tests {
		if got := PortBitsFor(tt.n); got != tt.want {
			t.Errorf("PortBitsFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestLayoutSizes(t *testing.T) {
	l := Layout{PortBits: 2, IndexBits: 12}
	if got := l.Partitions(); got != 4 {
		t.Errorf("Partitions = %d, want 4", got)
	}
	if got := l.PartitionSize(); got != 4096 {
		t.Errorf("PartitionSize = %d, want 4096", got)
	}
	if got := l.TotalEntries(); got != 1<<16 {
		t.Errorf("TotalEntries = %d, want %d", got, 1<<16)
	}
}

// TestComposeFigure8 checks the exact bit layout of the paper's Figure 8:
// | dp | flip | q port bits | k index bits |.
func TestComposeFigure8(t *testing.T) {
	l := Layout{PortBits: 3, IndexBits: 12}
	idx := l.Compose(true, false, 5, 0x123)
	want := 1<<(1+3+12) | 0<<(3+12) | 5<<12 | 0x123
	if idx != want {
		t.Fatalf("Compose = %#x, want %#x", idx, want)
	}
	idx = l.Compose(false, true, 0, 0)
	if want := 1 << 15; idx != want {
		t.Fatalf("flip bit = %#x, want %#x", idx, want)
	}
}

// TestComposeDecomposeRoundTrip property-checks the bijection.
func TestComposeDecomposeRoundTrip(t *testing.T) {
	l := Layout{PortBits: 4, IndexBits: 10}
	f := func(dp, flip bool, port uint8, idx uint16) bool {
		p := int(port) & (l.Partitions() - 1)
		i := int(idx) & (l.PartitionSize() - 1)
		gdp, gflip, gport, gidx := l.Decompose(l.Compose(dp, flip, p, i))
		return gdp == dp && gflip == flip && gport == p && gidx == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComposePanics(t *testing.T) {
	l := Layout{PortBits: 1, IndexBits: 4}
	for _, fn := range []func(){
		func() { l.Compose(false, false, 2, 0) },  // port out of range
		func() { l.Compose(false, false, -1, 0) }, // negative port
		func() { l.Compose(false, false, 0, 16) }, // index out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestViewAliasing(t *testing.T) {
	f := NewFile[int](Layout{PortBits: 1, IndexBits: 4})
	a := f.View(false, false, 0)
	b := f.View(false, false, 1)
	flip := f.View(false, true, 0)
	a[3] = 42
	b[3] = 7
	flip[3] = 9
	if got := f.View(false, false, 0)[3]; got != 42 {
		t.Fatalf("view not aliased: %d", got)
	}
	// Partitions are disjoint.
	if a[3] != 42 || b[3] != 7 || flip[3] != 9 {
		t.Fatal("partitions overlap")
	}
	// Views have exact length and cannot grow into neighbours.
	if len(a) != 16 || cap(a) != 16 {
		t.Fatalf("view len/cap = %d/%d, want 16/16", len(a), cap(a))
	}
}
