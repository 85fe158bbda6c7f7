package histstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// appendFrameThreeWrites writes a frame field by field — the length, the
// payload and the checksum as three Writes — straight from the layout: the
// one-write appendFrame's oracle.
func appendFrameThreeWrites(f *os.File, payload []byte) (int, error) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(payload, crcTable))
	if _, err := f.Write(hdr[:n]); err != nil {
		return 0, err
	}
	if _, err := f.Write(payload); err != nil {
		return 0, err
	}
	if _, err := f.Write(sum[:]); err != nil {
		return 0, err
	}
	return n + len(payload) + 4, nil
}

// TestFrameMatchesThreeWrites: a frame written in one Write is byte for byte
// the frame the three writes made, at every length-varint width, and an
// append that passes its frame storage back in allocates nothing.
func TestFrameMatchesThreeWrites(t *testing.T) {
	dir := t.TempDir()
	one, err := os.Create(filepath.Join(dir, "one"))
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	three, err := os.Create(filepath.Join(dir, "three"))
	if err != nil {
		t.Fatal(err)
	}
	defer three.Close()
	rng := rand.New(rand.NewSource(5))
	var buf []byte
	for _, size := range []int{0, 1, 127, 128, 300, 16383, 16384, 70000, 2097151, 2097152} {
		payload := make([]byte, size)
		rng.Read(payload)
		frame, err1 := appendFrame(one, buf, payload)
		buf = frame[:0]
		n3, err3 := appendFrameThreeWrites(three, payload)
		if err1 != nil || err3 != nil || len(frame) != n3 {
			t.Fatalf("%d-byte payload: one write %d (%v), three writes %d (%v)", size, len(frame), err1, n3, err3)
		}
	}
	a, _ := os.ReadFile(one.Name())
	b, _ := os.ReadFile(three.Name())
	if !bytes.Equal(a, b) {
		t.Fatalf("one-write frames (%d bytes) differ from three-write frames (%d bytes)", len(a), len(b))
	}
	if raceEnabled {
		return
	}
	payload := make([]byte, 4000)
	if allocs := testing.AllocsPerRun(100, func() {
		frame, err := appendFrame(one, buf, payload)
		if err != nil {
			t.Fatal(err)
		}
		buf = frame[:0]
	}); allocs != 0 {
		t.Fatalf("appendFrame allocates %v times per frame, want 0", allocs)
	}
}

// TestReadOutlivesItsLocation takes a read's two halves apart at the points a
// rotation, a prune or Close can fall between them: a record is located under
// the store lock, the store moves on, then the record is read. A record
// located in the active segment is read through its writer, and through its
// path once a rotation or Close has sealed the segment and closed the
// writer; one whose segment retention removed reads as not existing, which
// Covering and ReplaySince skip. Covering itself, racing appends that prune,
// never fails.
func TestReadOutlivesItsLocation(t *testing.T) {
	locate := func(st *Store, seg *segment) recordLoc {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.locLocked(seg, &seg.index[0])
	}
	read := func(l recordLoc) error {
		var r recordReader
		defer r.close()
		_, err := r.read(&l)
		return err
	}
	st := openTestStore(t, t.TempDir(), Options{SegmentBytes: 8 << 10, MaxBytes: 24 << 10})
	end := appendChain(t, st, 0, 1, 1000)
	active := locate(st, st.activeSeg)
	if active.writer == nil {
		t.Fatal("a record of the active segment was located without its writer")
	}
	if err := read(active); err != nil {
		t.Fatalf("a read through the active segment's writer: %v", err)
	}
	end = appendChain(t, st, 0, 20, end)
	if len(st.sealed) == 0 || st.sealed[0].seq != active.seq {
		t.Fatal("the appends sealed nothing")
	}
	if err := read(active); err != nil {
		t.Fatalf("a read located before its segment was sealed: %v", err)
	}
	sealed := locate(st, st.sealed[0])
	if sealed.writer != nil {
		t.Fatal("a record of a sealed segment was located with a writer")
	}
	appendChain(t, st, 0, 40, end)
	if st.Stats().PrunedSegments == 0 {
		t.Fatal("the appends pruned nothing")
	}
	if err := read(sealed); !os.IsNotExist(err) {
		t.Fatalf("a read located before its segment was pruned: %v, want not-exist", err)
	}
	active = locate(st, st.activeSeg)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := read(active); err != nil {
		t.Fatalf("a read located before the store was closed: %v", err)
	}

	st = openTestStore(t, t.TempDir(), Options{SegmentBytes: 4 << 10, MaxBytes: 12 << 10})
	defer st.Close()
	recs := make([]*Record, 200)
	for i := range recs {
		recs[i] = smallRecord(t, 0, 1000+100*uint64(i), 1100+100*uint64(i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for _, rec := range recs {
			if err := st.Append(rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		cps, err := st.Covering(0, 0, ^uint64(0))
		if err != nil {
			t.Fatalf("Covering racing a prune: %v", err)
		}
		for i := 1; i < len(cps); i++ {
			if freezeOf(cps[i]) <= freezeOf(cps[i-1]) {
				t.Fatalf("Covering racing a prune: freeze %d after %d", freezeOf(cps[i]), freezeOf(cps[i-1]))
			}
		}
	}
	wg.Wait()
	if st.Stats().PrunedSegments == 0 {
		t.Fatal("the appends pruned nothing")
	}
}

// TestReplaySurvivesPrune rotates and prunes under a replay from inside its
// own callback. The segment being read when its prune falls keeps being read
// through the handle the replay opened; the next one, pruned before the
// replay reached it, is skipped; the segment that was active when the replay
// began is read through its path once sealed. The replay fails nothing.
func TestReplaySurvivesPrune(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{SegmentBytes: 4 << 10, MaxBytes: 16 << 10})
	defer st.Close()
	end := appendChain(t, st, 0, 20, 1000)
	if st.Stats().PrunedSegments != 0 {
		t.Fatal("20 records already pruned a segment")
	}
	var segFreezes [][]uint64
	st.mu.Lock()
	for i := 0; i <= len(st.sealed); i++ {
		var fz []uint64
		for _, e := range st.segAt(i).index {
			fz = append(fz, e.freezeTime)
		}
		segFreezes = append(segFreezes, fz)
	}
	activeSeq := st.activeSeg.seq
	st.mu.Unlock()
	if len(segFreezes) < 3 {
		t.Fatalf("20 records fill %d segments, want at least 3", len(segFreezes))
	}
	want := append(slices.Clone(segFreezes[0]), slices.Concat(segFreezes[2:]...)...)
	var got []uint64
	err := st.ReplaySince(0, func(_ []byte, _ int, freezeTime, _ uint64, _ bool) error {
		for len(got) == 0 && st.Stats().PrunedSegments < 2 {
			end = appendChain(t, st, 0, 1, end)
		}
		got = append(got, freezeTime)
		return nil
	})
	if err != nil {
		t.Fatalf("replay across a prune: %v", err)
	}
	if pruned := st.Stats().PrunedSegments; pruned != 2 {
		t.Fatalf("the appends pruned %d segments, want 2", pruned)
	}
	st.mu.Lock()
	sealedActive := len(st.sealed) > 0 && st.sealed[0].seq <= activeSeq
	st.mu.Unlock()
	if !sealedActive {
		t.Fatal("the segment active when the replay began was not sealed under it")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("replayed freezes %v, want %v: the pruned segment's records skipped, the rest in order", got, want)
	}
}

// TestStoreHoldsOneDescriptor counts the process's open descriptors: a store
// with no retention, after writing and reading many segments, holds one, its
// writer; a read in flight holds one more; a reopened store holds its writer
// alone until and after a query; a closed store holds none.
func TestStoreHoldsOneDescriptor(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	// A first store warms up whatever the runtime opens once per process.
	warm := openTestStore(t, t.TempDir(), Options{})
	appendChain(t, warm, 0, 2, 1000)
	warm.Close()
	base := fds()

	check := func(st *Store, end uint64, what string) {
		t.Helper()
		if _, err := st.Covering(0, 0, end); err != nil {
			t.Fatal(err)
		}
		if n := fds() - base; n != 1 {
			t.Fatalf("%s: a store holds %d descriptors after a query, want its writer's", what, n)
		}
		inFlight := 0
		if err := st.ReplaySince(0, func([]byte, int, uint64, uint64, bool) error {
			inFlight = max(inFlight, fds()-base)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if inFlight != 2 {
			t.Fatalf("%s: a replay in flight holds %d descriptors with the store's, want 2", what, inFlight)
		}
		if n := fds() - base; n != 1 {
			t.Fatalf("%s: a store holds %d descriptors after a replay, want its writer's", what, n)
		}
	}
	st := openTestStore(t, dir, Options{SegmentBytes: 8 << 10})
	end := appendChain(t, st, 0, 200, 1000)
	if segs := st.Stats().Segments; segs < 20 {
		t.Fatalf("want at least 20 segments, got %d", segs)
	}
	check(st, end, "written")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fds() - base; n != 0 {
		t.Fatalf("a closed store holds %d descriptors", n)
	}

	st = openTestStore(t, dir, Options{SegmentBytes: 8 << 10})
	if n := fds() - base; n != 1 {
		t.Fatalf("a reopened store holds %d descriptors before any read, want its writer's", n)
	}
	check(st, end, "reopened")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fds() - base; n != 0 {
		t.Fatalf("a closed reopened store holds %d descriptors", n)
	}
}

// TestSeedlogsReopenUnchanged opens every committed log, reads all of it
// through ReplaySince and Covering, closes it, and requires its segment
// files to be the committed bytes: reading writes nothing.
func TestSeedlogsReopenUnchanged(t *testing.T) {
	for _, name := range []string{"seedlog_v1", "seedlog_v2", "seedlog_v3", "seedlog_v4", "seedlog_v5"} {
		dir, _ := copySeedlog(t, name)
		st := openTestStore(t, dir, Options{})
		ports := map[int]bool{}
		records := 0
		if err := st.ReplaySince(0, func(_ []byte, port int, _, _ uint64, _ bool) error {
			ports[port] = true
			records++
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		covered := 0
		for port := range ports {
			cps, err := st.Covering(port, 0, ^uint64(0))
			if err != nil {
				t.Fatalf("%s port %d: %v", name, port, err)
			}
			covered += len(cps)
		}
		if records == 0 || covered != records {
			t.Fatalf("%s: replayed %d records, Covering found %d", name, records, covered)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		want, _ := filepath.Glob(filepath.Join("testdata", name, "*"))
		got, _ := filepath.Glob(filepath.Join(dir, "*"))
		if len(got) != len(want) {
			t.Fatalf("%s: %d files after reopening, %d committed", name, len(got), len(want))
		}
		for _, path := range want {
			a, _ := os.ReadFile(path)
			b, err := os.ReadFile(filepath.Join(dir, filepath.Base(path)))
			if err != nil || !bytes.Equal(a, b) {
				t.Fatalf("%s: %s changed on reopening (%v)", name, filepath.Base(path), err)
			}
		}
	}
}

// readCounter counts the ReadAt calls made through it.
type readCounter struct {
	r     io.ReaderAt
	calls int
}

func (c *readCounter) ReadAt(p []byte, off int64) (int, error) {
	c.calls++
	return c.r.ReadAt(p, off)
}

// TestFrameOneRead: a record whose index entry gives its length is read in
// one ReadAt — length varint, payload and checksum together — at every
// length-varint width, into the caller's buffer, which a warm read does not
// grow; a length that is not the frame's is refused.
func TestFrameOneRead(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "frames"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(6))
	sizes := []int{0, 1, 127, 128, 300, 16383, 16384, 70000}
	var payloads [][]byte
	var offs []int64
	var off int64
	for _, size := range sizes {
		payload := make([]byte, size)
		rng.Read(payload)
		frame, err := appendFrame(f, nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		payloads, offs = append(payloads, payload), append(offs, off)
		off += int64(len(frame))
	}
	var buf []byte
	for i, want := range payloads {
		rc := &readCounter{r: f}
		got, err := readFrame(rc, offs[i], off, uint64(len(want)), &buf)
		if err != nil || !bytes.Equal(got, want) || rc.calls != 1 {
			t.Fatalf("%d-byte payload: read %d bytes in %d ReadAts: %v", len(want), len(got), rc.calls, err)
		}
		if _, err := readFrame(f, offs[i], off, uint64(len(want))+1, &buf); err == nil {
			t.Fatalf("%d-byte payload read as %d bytes", len(want), len(want)+1)
		}
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := readFrame(f, offs[4], off, uint64(len(payloads[4])), &buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm readFrame allocates %v times, want 0", allocs)
	}
}

// TestReplayReusesOneBuffer: a replay hands every record out of one buffer,
// grown only for a record longer than any before it, so its payloads start
// at as many places as there were such records.
func TestReplayReusesOneBuffer(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{})
	defer st.Close()
	appendChain(t, st, 0, 40, 1000)
	storage := make(map[uintptr]bool)
	longest, highs := -1, 0
	err := st.ReplaySince(0, func(payload []byte, _ int, _, _ uint64, _ bool) error {
		if len(payload) > longest {
			longest, highs = len(payload), highs+1
		}
		storage[uintptr(unsafe.Pointer(unsafe.SliceData(payload)))-uintptr(uvarintLen(uint64(len(payload))))] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(storage) > highs {
		t.Fatalf("40 records replayed from %d buffers; %d of them were longer than every one before", len(storage), highs)
	}
}

// TestCoveringDecodesOutOfItsBuffer: Covering reads its records through one
// reused buffer, and the next call's reader takes the same one from the
// pool. A checkpoint decoded from it owns what it holds: after Covering has
// read record A then B, and another call has read B again, A answers
// bit-identically to a fresh DecodeRecord of A's bytes.
func TestCoveringDecodesOutOfItsBuffer(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{})
	defer st.Close()
	var encs [][]byte
	for i, seed := range []int64{4, 5} {
		rec := buildRecord(t, seed, 20000)
		rec.Port, rec.PrevFreeze, rec.FreezeTime = 0, uint64(i)*100, uint64(i+1)*100
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	cps, err := st.Covering(0, 0, 200)
	if err != nil || len(cps) != 2 {
		t.Fatalf("Covering found %d checkpoints: %v", len(cps), err)
	}
	st.DropCache()
	if again, err := st.Covering(0, 100, 200); err != nil || len(again) != 1 || again[0] == cps[1] {
		t.Fatalf("Covering did not decode B again: %d checkpoints, %v", len(again), err)
	}
	for i, cp := range cps {
		fresh, err := DecodeRecord(encs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cp.Filtered(), fresh.TW) {
			t.Fatalf("record %d: the checkpoint Covering decoded differs from a fresh decode", i)
		}
		for _, iv := range [][2]uint64{{0, math.MaxUint64}, {2000, 9000}, {30000, 31000}} {
			if got, want := cp.Filtered().Query(iv[0], iv[1]), fresh.TW.Query(iv[0], iv[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("record %d: [%d, %d) answers %v, a fresh decode %v", i, iv[0], iv[1], got, want)
			}
		}
	}
}
