package histstore

import (
	"os"
	"path/filepath"
	"testing"

	"printqueue/internal/telemetry"
)

// smallRecord builds a compact record with distinct coverage
// (PrevFreeze, FreezeTime] so tests can target individual checkpoints.
func smallRecord(t *testing.T, port int, prev, freeze uint64) *Record {
	t.Helper()
	rec := buildRecord(t, int64(freeze), 200)
	rec.Port = port
	rec.PrevFreeze = prev
	rec.FreezeTime = freeze
	rec.Special = false
	return rec
}

func openTestStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	st, err := Open(opts, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// appendChain appends n chained checkpoints (each covering 100 ns) for port
// and returns the final freeze time.
func appendChain(t *testing.T, st *Store, port, n int, startAt uint64) uint64 {
	t.Helper()
	prev := startAt
	for i := 0; i < n; i++ {
		freeze := prev + 100
		if err := st.Append(smallRecord(t, port, prev, freeze)); err != nil {
			t.Fatal(err)
		}
		prev = freeze
	}
	return prev
}

// freezeOf returns the end of a cold checkpoint's coverage.
func freezeOf(c *ColdCheckpoint) uint64 {
	_, freeze := c.Coverage()
	return freeze
}

func TestStoreAppendAndCovering(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{})
	defer st.Close()
	end := appendChain(t, st, 3, 10, 1000)

	// Full span: all 10 checkpoints, ascending by freeze time.
	cps, err := st.Covering(3, 1000, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 10 {
		t.Fatalf("got %d checkpoints, want 10", len(cps))
	}
	for i, cp := range cps {
		want := uint64(1000 + (i+1)*100)
		if freezeOf(cp) != want {
			t.Fatalf("checkpoint %d: freeze %d, want %d", i, freezeOf(cp), want)
		}
	}

	// Narrow interval inside one checkpoint's coverage.
	cps, err = st.Covering(3, 1310, 1350)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || freezeOf(cps[0]) != 1400 {
		t.Fatalf("narrow query: got %d checkpoints (freeze %v), want the 1400 checkpoint",
			len(cps), func() any {
				if len(cps) > 0 {
					return freezeOf(cps[0])
				}
				return nil
			}())
	}

	// Boundary semantics are half-open like the hot tier: a checkpoint covers
	// (PrevFreeze, FreezeTime], so start == FreezeTime excludes it and
	// end == PrevFreeze excludes it too.
	cps, err = st.Covering(3, 1400, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || freezeOf(cps[0]) != 1500 {
		t.Fatalf("boundary query returned %d checkpoints, want exactly the 1500 one", len(cps))
	}

	// Wrong port: nothing.
	if cps, _ := st.Covering(7, 1000, end); len(cps) != 0 {
		t.Fatalf("port 7 query returned %d checkpoints, want 0", len(cps))
	}
}

func TestStoreRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	st := openTestStore(t, dir, Options{SegmentBytes: 8 << 10})
	end := appendChain(t, st, 0, 40, 1000)
	stats := st.Stats()
	if stats.Segments < 3 {
		t.Fatalf("only %d segments after 40 appends with 8 KiB segments, expected rotation", stats.Segments)
	}
	if stats.Appended != 40 {
		t.Fatalf("appended %d, want 40", stats.Appended)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: every record must still be reachable, no recovery needed.
	st2 := openTestStore(t, dir, Options{SegmentBytes: 8 << 10})
	defer st2.Close()
	if st2.Stats().RecoveredRecords != 0 || st2.Stats().TruncatedBytes != 0 {
		t.Fatalf("clean reopen reported recovery: %+v", st2.Stats())
	}
	cps, err := st2.Covering(0, 1000, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 40 {
		t.Fatalf("reopened store found %d checkpoints, want 40", len(cps))
	}
	for i := 1; i < len(cps); i++ {
		if freezeOf(cps[i]) <= freezeOf(cps[i-1]) {
			t.Fatal("checkpoints not ascending after reopen across segments")
		}
	}
}

func TestStoreCacheHitMiss(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{})
	defer st.Close()
	end := appendChain(t, st, 1, 6, 1000)

	// First pass decodes every checkpoint from disk (all misses).
	if _, err := st.Covering(1, 1000, end); err != nil {
		t.Fatal(err)
	}
	first := st.Stats()
	if first.CacheMisses != 6 || first.CacheHits != 0 {
		t.Fatalf("first pass: hits=%d misses=%d, want 0/6", first.CacheHits, first.CacheMisses)
	}
	if _, err := st.Covering(1, 1000, end); err != nil {
		t.Fatal(err)
	}
	second := st.Stats()
	if second.CacheHits != 6 || second.CacheMisses != 6 {
		t.Fatalf("second pass: hits=%d misses=%d, want 6/6", second.CacheHits, second.CacheMisses)
	}
	if second.CacheBytes <= 0 {
		t.Fatal("cache holds entries but CacheBytes is zero")
	}
}

func TestStoreCacheBudgetEviction(t *testing.T) {
	// A punitive 1-byte budget: every decoded checkpoint exceeds it, but the
	// cache must still retain one entry (so a query making progress can reuse
	// its own decode) and never grow beyond that.
	st := openTestStore(t, t.TempDir(), Options{CacheBytes: 1})
	defer st.Close()
	end := appendChain(t, st, 1, 8, 1000)
	if _, err := st.Covering(1, 1000, end); err != nil {
		t.Fatal(err)
	}
	if n := len(st.cache.entries); n > 1 {
		t.Fatalf("1-byte budget retained %d cache entries, want <= 1", n)
	}
	// Second pass decodes again (evicted), still correct.
	cps, err := st.Covering(1, 1000, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 8 {
		t.Fatalf("got %d checkpoints under eviction pressure, want 8", len(cps))
	}
}

func TestStorePruneMaxBytes(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{SegmentBytes: 8 << 10, MaxBytes: 24 << 10})
	appendChain(t, st, 0, 60, 1000)
	stats := st.Stats()
	if stats.PrunedSegments == 0 {
		t.Fatal("MaxBytes never pruned a segment")
	}
	if stats.BytesOnDisk > 40<<10 {
		t.Fatalf("bytes on disk %d way above budget, prune not keeping up", stats.BytesOnDisk)
	}
	// Pruned segments must be gone from disk too.
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != stats.Segments {
		t.Fatalf("%d .seg files on disk but stats say %d segments", len(names), stats.Segments)
	}
	// Queries over pruned history return what's left, no error.
	if _, err := st.Covering(0, 1000, 7000); err != nil {
		t.Fatal(err)
	}
	st.Close()
}

func TestStorePruneMaxAge(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{SegmentBytes: 8 << 10, MaxAgeNs: 800})
	end := appendChain(t, st, 0, 60, 1000)
	stats := st.Stats()
	if stats.PrunedSegments == 0 {
		t.Fatal("MaxAgeNs never pruned a segment")
	}
	// Recent history must survive: the last 800 ns (8 checkpoints) minus
	// whatever shares a segment with older data.
	cps, err := st.Covering(0, end-400, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 4 {
		t.Fatalf("recent history damaged by age pruning: got %d checkpoints, want 4", len(cps))
	}
	st.Close()
}

func TestStoreCloseSealsActive(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{})
	appendChain(t, st, 0, 3, 1000)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The only segment should now carry a valid trailer: openSealed must
	// accept it without a recovery scan.
	seg, ok, err := openSealed(segPath(dir, 1), 1)
	if err != nil || !ok {
		t.Fatalf("active segment not sealed at Close: ok=%v err=%v", ok, err)
	}
	if seg.count != 3 {
		t.Fatalf("sealed trailer says %d records, want 3", seg.count)
	}
}

func TestStoreCloseRemovesEmptyActive(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(names) != 0 {
		t.Fatalf("empty store left %d segment files behind", len(names))
	}
}

// TestStoreEncodedSmallerThanRaw: the store's byte counters show the
// codec's ratio — the raw counter holds the record's resident size, and the
// encoded one is 4.15x smaller than the register entries the read took
// (measured: 4.27x on this record).
func TestStoreEncodedSmallerThanRaw(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{})
	defer st.Close()
	rec := buildRecord(t, 21, 20000)
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.RawBytes != rec.MemBytes() {
		t.Fatalf("raw counter %d, the record's resident size %d", stats.RawBytes, rec.MemBytes())
	}
	regs := registerBytes(rec)
	t.Logf("registers read %d bytes, encoded %d bytes: %.2fx", regs, stats.EncodedBytes, float64(regs)/float64(stats.EncodedBytes))
	if stats.EncodedBytes*415 > regs*100 {
		t.Fatalf("encoded %d vs registers read %d: less than 4.15x smaller", stats.EncodedBytes, regs)
	}
}

func TestStoreLazyIndexLoad(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{SegmentBytes: 8 << 10})
	end := appendChain(t, st, 0, 40, 1000)
	st.Close()

	// Reopen: sealed segments must not load their footers until queried.
	st2 := openTestStore(t, dir, Options{SegmentBytes: 8 << 10})
	defer st2.Close()
	st2.mu.Lock()
	for _, seg := range st2.sealed {
		if seg.index != nil {
			st2.mu.Unlock()
			t.Fatal("sealed segment loaded its index eagerly at open")
		}
	}
	nSealed := len(st2.sealed)
	st2.mu.Unlock()
	if nSealed < 2 {
		t.Fatalf("want >= 2 sealed segments for a meaningful lazy-load test, got %d", nSealed)
	}

	// A query near the end must only fault in the overlapping segments.
	if _, err := st2.Covering(0, end-150, end); err != nil {
		t.Fatal(err)
	}
	loaded := 0
	st2.mu.Lock()
	for _, seg := range st2.sealed {
		if seg.index != nil {
			loaded++
		}
	}
	st2.mu.Unlock()
	if loaded == 0 || loaded >= nSealed {
		t.Fatalf("narrow query loaded %d of %d sealed indexes, want some but not all", loaded, nSealed)
	}
}

func TestStoreOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir, Options{})
	defer st.Close()
	appendChain(t, st, 0, 2, 1000)
	if st.Stats().Appended != 2 {
		t.Fatal("store failed to operate alongside foreign files")
	}
}

// TestStoreCacheChargesWhatQueriesRead pins the cold cache's accounting on
// the paper's register geometry: an entry is its Algorithm-3 index and is
// charged 64 bytes plus that index, once, at insert — not the queue monitors
// (never decoded) — and never grows after it, however it is queried.
func TestStoreCacheChargesWhatQueriesRead(t *testing.T) {
	const budget = 2 << 20
	base := seededRecords(t, true)[0].rec // many flows: the largest index
	st := openTestStore(t, t.TempDir(), Options{CacheBytes: budget})
	defer st.Close()
	const n = 60
	prev := uint64(1000)
	for i := 0; i < n; i++ {
		rec := *base
		rec.Port, rec.PrevFreeze, rec.FreezeTime = 1, prev, prev+100
		if err := st.Append(&rec); err != nil {
			t.Fatal(err)
		}
		prev += 100
	}
	cps, err := st.Covering(1, 1000, prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != n {
		t.Fatalf("got %d checkpoints, want %d", len(cps), n)
	}

	index := base.TW.MemBytes()
	charged := st.cache.residentBytes()
	var sum int64
	for _, el := range st.cache.entries {
		charge := el.Value.(*lruEntry).cp.memBytes()
		if want := 64 + index; charge != want {
			t.Fatalf("entry charged %d bytes, want header 64 + index %d = %d", charge, index, want)
		}
		sum += charge
	}
	if charged != sum || charged > budget {
		t.Fatalf("cache reports %d resident bytes; entries sum to %d, budget %d", charged, sum, budget)
	}
	if got := st.Stats().CacheBytes; got != sum {
		t.Fatalf("Stats.CacheBytes %d, entries sum to %d", got, sum)
	}
	for _, cp := range cps {
		if cp.Filtered().Query(0, ^uint64(0)).Total() == 0 {
			t.Fatal("a resident entry answers nothing over all time")
		}
	}
	if got := st.cache.residentBytes(); got != charged {
		t.Fatalf("querying every entry moved the cache's charge from %d to %d bytes", charged, got)
	}
	kept := int64(len(st.cache.entries))
	t.Logf("per entry %d B; a %d MiB budget keeps %d entries", 64+index, budget>>20, kept)
	if kept >= n || kept < budget/(64+index)-1 {
		t.Fatalf("budget keeps %d of %d entries of %d bytes", kept, n, 64+index)
	}
}

// TestStoreEmptySegmentNeverLoadsIndex is the store half of the
// subscribe-to-empty-history defect: a segment without records has no
// footer, and neither ReplaySince nor Covering may go looking for one — on
// a fresh store, and on one reopened over a log whose segments are all
// sealed (its new active segment is empty).
func TestStoreEmptySegmentNeverLoadsIndex(t *testing.T) {
	dir := t.TempDir()
	replay := func(st *Store) (n int) {
		t.Helper()
		err := st.ReplaySince(0, func([]byte, int, uint64, uint64, bool) error { n++; return nil })
		if err != nil {
			t.Fatalf("ReplaySince: %v", err)
		}
		return n
	}
	st := openTestStore(t, dir, Options{})
	if n := replay(st); n != 0 {
		t.Fatalf("fresh store replayed %d records", n)
	}
	if cps, err := st.Covering(1, 0, ^uint64(0)); err != nil || len(cps) != 0 {
		t.Fatalf("fresh store: Covering = %d checkpoints, %v", len(cps), err)
	}
	end := appendChain(t, st, 1, 5, 1000)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openTestStore(t, dir, Options{})
	defer st.Close()
	if st.activeSeg.count != 0 || len(st.sealed) == 0 {
		t.Fatalf("reopened store: active segment holds %d records, %d sealed segments; want an empty active one after sealed ones",
			st.activeSeg.count, len(st.sealed))
	}
	if n := replay(st); n != 5 {
		t.Fatalf("reopened store replayed %d records, want 5", n)
	}
	if cps, err := st.Covering(1, 1000, end); err != nil || len(cps) != 5 {
		t.Fatalf("reopened store: Covering = %d checkpoints, %v", len(cps), err)
	}
	// And should anything ever ask an unsealed segment for its footer, the
	// answer is an error, not a panic.
	if err := st.activeSeg.loadIndex(); err == nil {
		t.Fatal("loadIndex on an unsealed segment succeeded")
	}
}
