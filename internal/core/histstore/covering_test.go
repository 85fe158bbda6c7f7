package histstore

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"printqueue/internal/telemetry"
)

// scanCovering is Covering as a linear scan, the oracle the per-port binary
// search is held to: every index entry of every overlapping segment is
// read, those of port whose coverage overlaps [start, end) are kept, sorted
// by freeze time (stably: ties keep log order) and read through the cache
// as Covering reads them.
func scanCovering(s *Store, port int, start, end uint64) ([]*ColdCheckpoint, error) {
	if end <= start {
		return nil, nil
	}
	var locs []recordLoc
	s.mu.Lock()
	segs := append(slices.Clone(s.sealed), s.activeSeg)
	for _, seg := range segs {
		if !seg.overlaps(start, end) {
			continue
		}
		if err := s.indexLocked(seg); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		for _, e := range seg.index {
			if e.port == port && e.freezeTime > start && e.prevFreeze < end {
				// Located by path alone: the oracle reads every record
				// through a file it opens.
				locs = append(locs, recordLoc{seq: seg.seq, path: seg.path, limit: seg.recordEnd, entry: e})
			}
		}
	}
	s.mu.Unlock()
	sort.SliceStable(locs, func(i, j int) bool { return locs[i].entry.freezeTime < locs[j].entry.freezeTime })
	var r recordReader
	defer r.close()
	var out []*ColdCheckpoint
	for i := range locs {
		l := &locs[i]
		key := cacheKey{seg: l.seq, off: l.entry.offset}
		cp, ok := s.cache.get(key)
		if !ok {
			var err error
			if cp, err = s.decodeAt(key, &r, l); err != nil {
				return nil, err
			}
		}
		out = append(out, cp)
	}
	return out, nil
}

// scanLastFreeze is LastFreeze as a linear scan: the largest freeze time of
// port in the newest segment that holds a record of it.
func scanLastFreeze(s *Store, port int) (freeze uint64, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := append(slices.Clone(s.sealed), s.activeSeg)
	for i := len(segs) - 1; i >= 0; i-- {
		seg := segs[i]
		if seg.count == 0 {
			continue
		}
		if err := s.indexLocked(seg); err != nil {
			return 0, false, err
		}
		for _, e := range seg.index {
			if e.port == port && (!ok || e.freezeTime > freeze) {
				freeze, ok = e.freezeTime, true
			}
		}
		if ok {
			return freeze, true, nil
		}
	}
	return 0, false, nil
}

// checkCoveringMatchesScan holds Covering and LastFreeze to the scans on
// every port and interval given: the same checkpoints in the same order,
// the same newest freeze, or an error from both.
func checkCoveringMatchesScan(t *testing.T, st *Store, ports []int, intervals [][2]uint64) {
	t.Helper()
	for _, port := range ports {
		freeze, ok, err := st.LastFreeze(port)
		wantFreeze, wantOK, wantErr := scanLastFreeze(st, port)
		if freeze != wantFreeze || ok != wantOK || (err == nil) != (wantErr == nil) {
			t.Fatalf("port %d: LastFreeze = %d, %v, %v; the scan says %d, %v, %v", port, freeze, ok, err, wantFreeze, wantOK, wantErr)
		}
		for _, iv := range intervals {
			got, err := st.Covering(port, iv[0], iv[1])
			want, wantErr := scanCovering(st, port, iv[0], iv[1])
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("port %d [%d, %d): Covering error %v, the scan's %v", port, iv[0], iv[1], err, wantErr)
			}
			if err == nil && !slices.Equal(got, want) {
				t.Fatalf("port %d [%d, %d): Covering found %s, the scan %s", port, iv[0], iv[1], coverages(got), coverages(want))
			}
		}
	}
}

func coverages(cps []*ColdCheckpoint) string {
	var b strings.Builder
	for _, cp := range cps {
		prev, freeze := cp.Coverage()
		fmt.Fprintf(&b, "(%d,%d]", prev, freeze)
	}
	return "[" + b.String() + "]"
}

// randomStore appends n records of the given ports, in random interleaving,
// each chained to its port's previous one by a random gap (often none) and
// covering a random span (sometimes none). It returns every boundary a
// record has.
func randomStore(t *testing.T, st *Store, rng *rand.Rand, ports []int, n int, encoded bool) []uint64 {
	t.Helper()
	base := smallRecord(t, 0, 0, 1)
	last := make(map[int]uint64)
	var bounds []uint64
	for i := 0; i < n; i++ {
		port := ports[rng.Intn(len(ports))]
		prev := last[port] + 1000
		if rng.Intn(2) == 0 {
			prev += uint64(rng.Intn(300))
		}
		freeze := prev
		if rng.Intn(8) != 0 {
			freeze += 1 + uint64(rng.Intn(400))
		}
		rec := *base
		rec.Port, rec.PrevFreeze, rec.FreezeTime = port, prev, freeze
		var err error
		if encoded {
			var payload []byte
			if payload, err = EncodeRecord(nil, &rec); err == nil {
				err = st.AppendEncoded(payload, port, freeze, prev, false)
			}
		} else {
			err = st.Append(&rec)
		}
		if err != nil {
			t.Fatal(err)
		}
		last[port] = freeze
		bounds = append(bounds, prev, freeze)
	}
	return bounds
}

// coveringIntervals are the intervals TestCoveringMatchesScan asks about:
// empty and inverted ones, ones before the first record and after the
// last, ones straddling each segment edge, ones spanning several records,
// and random ones.
func coveringIntervals(st *Store, rng *rand.Rand, bounds []uint64) [][2]uint64 {
	lo, hi := slices.Min(bounds), slices.Max(bounds)
	ivs := [][2]uint64{
		{0, math.MaxUint64},
		{lo, lo}, {hi, hi - 1},
		{0, lo}, {0, lo + 1},
		{hi, hi + 10}, {hi - 1, hi + 10},
		{lo, hi},
	}
	st.mu.Lock()
	for _, seg := range st.sealed {
		// Each sealed segment's newest freeze lies at or next to an edge.
		e := seg.maxFreeze
		ivs = append(ivs, [2]uint64{e - 1, e + 1}, [2]uint64{e - 500, e + 500}, [2]uint64{e, e + 2000})
	}
	st.mu.Unlock()
	for i := 0; i < 60; i++ {
		a := bounds[rng.Intn(len(bounds))] + uint64(rng.Intn(3)) - 1
		ivs = append(ivs, [2]uint64{a, a + uint64(rng.Intn(5000))})
	}
	return ivs
}

// TestCoveringMatchesScan: on random multi-port stores of several sealed
// segments — as written, reopened (footers load lazily), pruned to a byte
// budget, and written through AppendEncoded — Covering and LastFreeze
// answer as the linear scans do, for every port and for intervals that are
// empty, precede or follow every record, straddle segment edges or span
// many records.
func TestCoveringMatchesScan(t *testing.T) {
	ports := []int{0, 1, 2, 5}
	asked := append(slices.Clone(ports), 3)
	for i, tc := range []struct {
		name            string
		opts            Options
		encoded, reopen bool
	}{
		{name: "sealed", opts: Options{SegmentBytes: 4 << 10}},
		{name: "reopened", opts: Options{SegmentBytes: 4 << 10}, reopen: true},
		{name: "pruned", opts: Options{SegmentBytes: 4 << 10, MaxBytes: 24 << 10}},
		{name: "encoded", opts: Options{SegmentBytes: 4 << 10}, encoded: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			dir := t.TempDir()
			st := openTestStore(t, dir, tc.opts)
			bounds := randomStore(t, st, rng, ports, 400, tc.encoded)
			if tc.reopen {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				st = openTestStore(t, dir, tc.opts)
			}
			defer st.Close()
			stats := st.Stats()
			if stats.Segments < 4 {
				t.Fatalf("%d segments; the test wants several sealed ones", stats.Segments)
			}
			if tc.opts.MaxBytes > 0 && stats.PrunedSegments == 0 {
				t.Fatal("nothing was pruned")
			}
			checkCoveringMatchesScan(t, st, asked, coveringIntervals(st, rng, bounds))
		})
	}
}

// TestAppendRefusesPortOutOfOrder: an append whose coverage starts before
// its port's newest logged freeze, or is inverted, is refused and counted —
// also when that freeze lies in a sealed segment, or in one a reopened store
// has not read yet — and the log is left as it was; other ports, and a
// record that starts where the port's newest one ends, are appended.
func TestAppendRefusesPortOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 4 << 10}
	st := openTestStore(t, dir, opts)
	end := appendChain(t, st, 1, 30, 1000)
	appendChain(t, st, 2, 1, 0)
	refused := func(st *Store, port int, prev, freeze uint64) {
		t.Helper()
		before := st.Stats()
		if err := st.Append(smallRecord(t, port, prev, freeze)); err == nil {
			t.Fatalf("port %d: appended (%d, %d] after freeze %d", port, prev, freeze, end)
		}
		after := st.Stats()
		if after.AppendErrors != before.AppendErrors+1 || after.Appended != before.Appended || after.BytesOnDisk != before.BytesOnDisk {
			t.Fatalf("a refused append moved the store: %+v -> %+v", before, after)
		}
	}
	refused(st, 1, end-1, end+100)
	refused(st, 1, end-100, end-50) // inside the newest coverage
	refused(st, 1, 500, 600)        // before all of it
	refused(st, 1, end+200, end+100)
	if err := st.Append(smallRecord(t, 3, 10, 20)); err != nil {
		t.Fatalf("a new port's record: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Port 1's newest record is in a sealed segment whose footer the
	// reopened store reads to refuse the append.
	st = openTestStore(t, dir, opts)
	defer st.Close()
	refused(st, 1, end-1, end+100)
	if err := st.Append(smallRecord(t, 1, end, end)); err != nil {
		t.Fatalf("a record starting where the port's newest ends: %v", err)
	}
	if err := st.Append(smallRecord(t, 1, end, end+100)); err != nil {
		t.Fatalf("a record after an empty one at the same instant: %v", err)
	}
	if freeze, ok, err := st.LastFreeze(1); err != nil || !ok || freeze != end+100 {
		t.Fatalf("LastFreeze(1) = %d, %v, %v; want %d", freeze, ok, err, end+100)
	}
	if cps, err := st.Covering(1, 0, math.MaxUint64); err != nil || len(cps) != 32 {
		t.Fatalf("Covering(1) = %d checkpoints, %v; want 32", len(cps), err)
	}
}

// TestCoveringSegmentsOutOfOrder: a log whose newer segment holds a port's
// records from before an older segment's — two segments no store appended
// in that order — is answered as the linear scan answers it, in freeze
// order.
func TestCoveringSegmentsOutOfOrder(t *testing.T) {
	sealedWith := func(prev uint64) []byte {
		dir := t.TempDir()
		st := openTestStore(t, dir, Options{})
		appendChain(t, st, 1, 3, prev)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(segPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dir := t.TempDir()
	for seq, prev := range map[uint64]uint64{1: 5000, 2: 1000} {
		if err := os.WriteFile(segPath(dir, seq), sealedWith(prev), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := openTestStore(t, dir, Options{})
	defer st.Close()
	checkCoveringMatchesScan(t, st, []int{1}, [][2]uint64{{0, math.MaxUint64}, {1000, 1300}, {1250, 5050}})
	if cps, err := st.Covering(1, 0, math.MaxUint64); err != nil || len(cps) != 6 || freezeOf(cps[0]) != 1100 {
		t.Fatalf("Covering = %s, %v; want all six, from (1000,1100]", coverages(cps), err)
	}
}

// TestReopenLogWithRestartRecords: builds that did not refuse out-of-order
// appends started a reopened switch's ports from 0, so finalizing a port
// logged (0, now] after its older records. A log holding such records —
// first in the unsealed segment a store resumes, then sealed behind a
// footer — opens with every record kept, answers Covering and LastFreeze
// on every port as the linear scan does, and takes appends that chain on
// from each port's newest freeze.
func TestReopenLogWithRestartRecords(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 16 << 10} // ~20 records
	st := openTestStore(t, dir, opts)
	var now uint64
	for port := 0; port < 3; port++ {
		now = max(now, appendChain(t, st, port, 12, 1000))
	}
	now += 500
	active := st.activeSeg.path
	// Crash without sealing, as a switch killed before its upgrade, after
	// the older build logged a restart record for ports 0 and 1.
	st.active.Close()
	st.cache.drop()
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	for port := 0; port < 2; port++ {
		payload, err := EncodeRecord(nil, smallRecord(t, port, 0, now))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := appendFrame(f, nil, payload); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	rng := rand.New(rand.NewSource(7))
	ports := []int{0, 1, 2, 3}
	check := func(st *Store) {
		t.Helper()
		var bounds []uint64
		if err := st.ReplaySince(0, func(_ []byte, _ int, freeze, prev uint64, _ bool) error {
			bounds = append(bounds, prev, freeze)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		checkCoveringMatchesScan(t, st, ports, coveringIntervals(st, rng, bounds))
		for port := 0; port < 2; port++ {
			if cps, err := st.Covering(port, 1050, 1060); err != nil || len(cps) != 2 {
				t.Fatalf("port %d: Covering inside its first record = %s, %v; want it and the restart record", port, coverages(cps), err)
			}
		}
	}
	st = openTestStore(t, dir, opts)
	if stats := st.Stats(); stats.TruncatedBytes != 0 {
		t.Fatalf("recovery truncated %d bytes", stats.TruncatedBytes)
	}
	check(st)
	if err := st.Append(smallRecord(t, 1, now-1, now+100)); err == nil {
		t.Fatal("appended a record starting before the restart record's freeze")
	}
	appendChain(t, st, 0, 30, now) // seals the resumed segment
	appendChain(t, st, 1, 1, now)
	appendChain(t, st, 2, 1, now)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openTestStore(t, dir, opts)
	defer st.Close()
	check(st)
	unordered := 0
	st.mu.Lock()
	for _, seg := range st.sealed {
		if seg.unordered {
			unordered++
		}
	}
	st.mu.Unlock()
	if unordered != 1 {
		t.Fatalf("%d sealed segments read as unordered from their footers, want the resumed one", unordered)
	}
}

// BenchmarkCovering is the narrow cold query of a dense switch: 8 ports
// interleaved in one segment of ~2,000 records, asked about one port over
// an interval inside one record's coverage, with the records in the cache.
func BenchmarkCovering(b *testing.B) {
	st, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 64 << 20}, telemetry.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	payload, err := EncodeRecord(nil, buildRecordB(b, 1, 50))
	if err != nil {
		b.Fatal(err)
	}
	const ports, perPort = 8, 250
	for i := 0; i < perPort; i++ {
		for p := 0; p < ports; p++ {
			prev := uint64(i) * 1000
			if err := st.AppendEncoded(payload, p, prev+1000, prev, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	if n := st.Stats().Segments; n != 1 {
		b.Fatalf("%d segments, want 1", n)
	}
	start := uint64(perPort/2)*1000 + 100
	if cps, err := st.Covering(3, start, start+200); err != nil || len(cps) != 1 {
		b.Fatalf("Covering = %d checkpoints, %v; want 1", len(cps), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Covering(3, start, start+200); err != nil {
			b.Fatal(err)
		}
	}
}
