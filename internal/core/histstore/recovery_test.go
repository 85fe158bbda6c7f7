package histstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"printqueue/internal/telemetry"
)

// crashedStore writes n records into a single unsealed segment and then
// simulates a crash mid-write by cutting the file at cut bytes (no seal, no
// trailer). It returns the directory, the encoded frame boundaries
// (offset of each record's frame start, plus the final end), and the final
// freeze time.
func crashedStore(t *testing.T, n int) (dir string, bounds []int64, end uint64) {
	t.Helper()
	dir = t.TempDir()
	st := openTestStore(t, dir, Options{})
	prev := uint64(1000)
	for i := 0; i < n; i++ {
		bounds = append(bounds, st.activeSeg.recordEnd)
		freeze := prev + 100
		if err := st.Append(smallRecord(t, 0, prev, freeze)); err != nil {
			t.Fatal(err)
		}
		prev = freeze
	}
	bounds = append(bounds, st.activeSeg.recordEnd)
	// Crash: release the fd without sealing. The file keeps every frame but
	// has no footer or trailer.
	st.active.Close()
	st.cache.drop()
	return dir, bounds, prev
}

// TestRecoveryUnsealedSegment: a crash that loses only the seal (all frames
// intact) must recover every record with no truncation.
func TestRecoveryUnsealedSegment(t *testing.T) {
	dir, _, end := crashedStore(t, 10)
	st := openTestStore(t, dir, Options{})
	defer st.Close()
	stats := st.Stats()
	if stats.RecoveredRecords != 10 || stats.TruncatedBytes != 0 {
		t.Fatalf("recovered=%d truncated=%d, want 10/0", stats.RecoveredRecords, stats.TruncatedBytes)
	}
	cps, err := st.Covering(0, 1000, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 10 {
		t.Fatalf("found %d checkpoints after recovery, want 10", len(cps))
	}
	// The recovered segment is the active one again: appends must continue.
	if err := st.Append(smallRecord(t, 0, end, end+100)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryTornTail cuts the crashed segment at every kind of position —
// mid-length-prefix, mid-payload, mid-checksum — with a deterministic seed,
// and requires: the torn tail is detected and truncated, every frame before
// the cut survives bit-exact, and the store keeps working.
func TestRecoveryTornTail(t *testing.T) {
	const records = 8
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 12; trial++ {
		dir, bounds, _ := crashedStore(t, records)
		path := segPath(dir, 1)

		// Cut strictly inside record k's frame: everything before k survives,
		// k itself is torn away.
		k := 1 + rng.Intn(records-1)
		lo, hi := bounds[k], bounds[k+1]
		cut := lo + 1 + rng.Int63n(hi-lo-1)
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}

		st := openTestStore(t, dir, Options{})
		stats := st.Stats()
		if stats.RecoveredRecords != k {
			t.Fatalf("trial %d (cut %d in frame %d): recovered %d records, want %d",
				trial, cut, k, stats.RecoveredRecords, k)
		}
		if stats.TruncatedBytes != cut-lo {
			t.Fatalf("trial %d: truncated %d bytes, want %d", trial, stats.TruncatedBytes, cut-lo)
		}
		// The intact prefix answers queries.
		endOK := uint64(1000 + k*100)
		cps, err := st.Covering(0, 1000, endOK)
		if err != nil {
			t.Fatal(err)
		}
		if len(cps) != k {
			t.Fatalf("trial %d: %d checkpoints after torn-tail recovery, want %d", trial, len(cps), k)
		}
		// The file itself was truncated back to the last good frame.
		if fi, err := os.Stat(path); err != nil || fi.Size() != lo {
			t.Fatalf("trial %d: file size %d after recovery, want %d", trial, fi.Size(), lo)
		}
		// New appends land where the tear was removed.
		if err := st.Append(smallRecord(t, 0, endOK, endOK+100)); err != nil {
			t.Fatal(err)
		}
		cps, err = st.Covering(0, endOK, endOK+100)
		if err != nil {
			t.Fatal(err)
		}
		if len(cps) != 1 {
			t.Fatalf("trial %d: append after recovery not visible", trial)
		}
		st.Close()
	}
}

// TestRecoveryCorruptPayload flips a byte inside an early frame: the CRC
// must catch it, and recovery keeps only the frames before the corruption.
func TestRecoveryCorruptPayload(t *testing.T) {
	const records = 6
	dir, bounds, _ := crashedStore(t, records)
	path := segPath(dir, 1)

	// Corrupt a byte in the middle of record 3's frame.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pos := (bounds[3] + bounds[4]) / 2
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, pos); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, pos); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st := openTestStore(t, dir, Options{})
	defer st.Close()
	stats := st.Stats()
	if stats.RecoveredRecords != 3 {
		t.Fatalf("recovered %d records past a corrupt frame, want 3", stats.RecoveredRecords)
	}
	if stats.TruncatedBytes == 0 {
		t.Fatal("corruption recovery reported zero truncated bytes")
	}
	cps, err := st.Covering(0, 1000, 1300)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 3 {
		t.Fatalf("intact prefix has %d checkpoints, want 3", len(cps))
	}
}

// TestRecoveryMultiSegmentCrash: older full segments exist but the crash
// leaves TWO unsealed segments (e.g. seal of the previous active also never
// hit disk). Recovery must seal the older one in place and resume the newest.
func TestRecoveryMultiSegmentCrash(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{SegmentBytes: 8 << 10})
	end := appendChain(t, st, 0, 40, 1000)
	// Crash without Close.
	st.active.Close()

	// Strip the trailer from the newest *sealed* segment to simulate a seal
	// that never reached disk.
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(names) < 3 {
		t.Fatalf("want >= 3 segments, got %d (%v)", len(names), err)
	}
	victim := names[len(names)-2]
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	// Remove trailer + a few footer bytes so openSealed rejects it.
	if err := os.Truncate(victim, fi.Size()-segTrailerSize-3); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, Options{SegmentBytes: 8 << 10})
	defer st2.Close()
	if st2.Stats().RecoveredRecords == 0 {
		t.Fatal("no records recovered from the unsealed segments")
	}
	cps, err := st2.Covering(0, 1000, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 40 {
		t.Fatalf("found %d of 40 checkpoints after multi-segment recovery", len(cps))
	}
	// The older recovered segment must now be sealed on disk.
	seq, ok := parseSegSeq(filepath.Base(victim))
	if !ok {
		t.Fatalf("bad segment name %q", victim)
	}
	if _, sealed, err := openSealed(victim, seq); err != nil || !sealed {
		t.Fatalf("victim segment not re-sealed by recovery: sealed=%v err=%v", sealed, err)
	}
}

// TestRecoveryKeepsPortOutOfOrder: an intact record of an unsealed segment
// that starts, and ends, before its port's previous record ends — builds
// that did not refuse such an append wrote them — is recovered, not
// truncated: the store opens with every record, answers Covering and
// LastFreeze as the linear scan does (the port's newest freeze is not its
// last record's), and appends after that freeze.
func TestRecoveryKeepsPortOutOfOrder(t *testing.T) {
	dir, bounds, end := crashedStore(t, 5)
	payload, err := EncodeRecord(nil, smallRecord(t, 0, end-250, end-50))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := appendFrame(f, nil, payload)
	n := len(frame)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir, Options{})
	defer st.Close()
	if stats := st.Stats(); stats.RecoveredRecords != 6 || stats.TruncatedBytes != 0 {
		t.Fatalf("recovered %d records, truncated %d bytes; want 6 and none", stats.RecoveredRecords, stats.TruncatedBytes)
	}
	if fi, err := os.Stat(segPath(dir, 1)); err != nil || fi.Size() != bounds[5]+int64(n) {
		t.Fatalf("segment left at %v bytes (%v), want %d", fi.Size(), err, bounds[5]+int64(n))
	}
	checkCoveringMatchesScan(t, st, []int{0}, [][2]uint64{{0, end + 200}, {end - 120, end - 110}, {end - 60, end - 40}, {end, end + 1}})
	if freeze, _, err := st.LastFreeze(0); err != nil || freeze != end {
		t.Fatalf("LastFreeze(0) = %d, %v; want %d", freeze, err, end)
	}
	if err := st.Append(smallRecord(t, 0, end-50, end+100)); err == nil {
		t.Fatal("appended a record starting before the port's newest freeze")
	}
	if err := st.Append(smallRecord(t, 0, end, end+100)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryGarbageHeader: a segment whose header is trash recovers to
// zero records (fully truncated) rather than failing the open.
func TestRecoveryGarbageHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 1), []byte("this is not a segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir, Options{})
	defer st.Close()
	if st.Stats().TruncatedBytes == 0 {
		t.Fatal("garbage segment reported no truncation")
	}
	if err := st.Append(smallRecord(t, 0, 1000, 1100)); err != nil {
		t.Fatal(err)
	}
}

// mixedSegment writes, as segment 1 of a fresh directory, an unsealed
// segment holding records of every version this build reads, as a switch
// upgraded twice in place appends them: the first five records of the
// version-1 log seedlog_v3, the next five of the version-2 log seedlog_v4,
// and three records this build writes; then the extra payloads given, framed
// as an append frames them. It returns the directory and the number of
// records of the first three kinds.
func mixedSegment(t *testing.T, extra ...[]byte) (dir string, n int) {
	t.Helper()
	var payloads [][]byte
	for _, log := range []string{"seedlog_v3", "seedlog_v4"} {
		src, _ := copySeedlog(t, log)
		old := openTestStore(t, src, Options{})
		from, i := len(payloads), 0
		err := old.ReplaySince(0, func(payload []byte, _ int, _, _ uint64, _ bool) error {
			if i >= from && i < from+5 {
				payloads = append(payloads, bytes.Clone(payload))
			}
			i++
			return nil
		})
		old.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 3; i++ {
		enc, err := EncodeRecord(nil, smallRecord(t, 5, 1000+100*i, 1100+100*i))
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, enc)
	}
	n = len(payloads)
	dir = t.TempDir()
	f, err := os.Create(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(segHeader[:]); err != nil {
		t.Fatal(err)
	}
	for i, p := range append(payloads, extra...) {
		if want := byte(1 + i/5); i < n && p[0] != want {
			t.Fatalf("record %d is of version %d, want %d", i, p[0], want)
		}
		if _, err := appendFrame(f, nil, p); err != nil {
			t.Fatal(err)
		}
	}
	return dir, n
}

// TestRecoveryMixedVersions: an unsealed segment whose version-1 and
// version-2 records older builds appended and whose version-3 ones this
// build appended after them reopened recovers whole; and a record after
// them of a version this build does not read — a newer build appended it —
// stops Open, naming the segment and the version, and leaves the file byte
// for byte as it was instead of truncating it, and every record in it, away.
func TestRecoveryMixedVersions(t *testing.T) {
	dir, n := mixedSegment(t)
	st := openTestStore(t, dir, Options{})
	if stats := st.Stats(); stats.RecoveredRecords != n || stats.TruncatedBytes != 0 {
		t.Fatalf("recovered %d of %d records, truncated %d bytes", stats.RecoveredRecords, n, stats.TruncatedBytes)
	}
	if cps, err := st.Covering(5, 1000, 1300); err != nil || len(cps) != 3 {
		t.Fatalf("%d version-3 checkpoints after recovery, want 3 (%v)", len(cps), err)
	}
	st.Close()

	v4, err := EncodeRecord(nil, smallRecord(t, 5, 1300, 1400))
	if err != nil {
		t.Fatal(err)
	}
	v4[0] = 4
	dir, _ = mixedSegment(t, v4)
	path := segPath(dir, 1)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err = Open(Options{Dir: dir}, telemetry.NewRegistry())
	if err == nil {
		st.Close()
		t.Fatal("a log holding a version-4 record opened")
	}
	var verr *VersionError
	if !errors.As(err, &verr) || verr.Version != 4 || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open failed with %q, want a version-4 error naming %s", err, path)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("the refused segment changed on disk: %d bytes, was %d", len(after), len(before))
	}
}
