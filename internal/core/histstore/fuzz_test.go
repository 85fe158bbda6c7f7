package histstore

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzDecodeRecord from the seeded records")

const fuzzCorpusDir = "testdata/fuzz/FuzzDecodeRecord"

// fuzzMemBound is the most a decoded record may occupy whatever the payload
// says: the codec's geometry limit in window cells, plus slack for headers.
// Monitor entries need no term of their own: the decoder allocates for the
// entries the payload holds, which decodeAllocBound covers.
var fuzzMemBound = int64(maxRegisterEntries)*32 + 1<<20

// allocatedBy returns the heap bytes f allocated. ReadMemStats stops the
// world and flushes every allocation cache, so the delta is exact up to what
// other goroutines allocate meanwhile.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is what a decode of n bytes may allocate, whole or
// windows-only: a valid cell takes two payload bytes and 36 in memory, a
// dictionary flow 13 and 14, an occupied monitor entry four and 68, and the
// rest is headers — whatever geometry the payload declares.
func decodeAllocBound(n int) uint64 { return 64*uint64(n) + 64<<10 }

// emptyWindowsPayload is a record header declaring the largest geometry the
// codec accepts — 16 windows of 2^16 cells — with every window empty: one
// byte each. The decoder used to allocate all 2^20 cells for it.
func emptyWindowsPayload() []byte {
	b := []byte{codecVersion, 0}
	b = appendUvarint(b, 1)                    // port
	b = appendUvarint(b, 100)                  // freeze time
	b = appendUvarint(b, 50)                   // freeze - prev
	for _, v := range []uint64{3, 16, 1, 16} { // m0, k, alpha, T
		b = appendUvarint(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(10))
	b = appendUvarint(b, 0)            // no flows
	b = append(b, make([]byte, 16)...) // 16 windows, 0 valid cells each
	return appendUvarint(b, 0)         // no queues
}

// emptyMonitorPayload is emptyWindowsPayload with one queue monitor of the
// largest geometry the codec accepts — 2^20 levels — and none occupied. The
// decoder used to allocate all 2^20 entries, 64 MB, for it.
func emptyMonitorPayload() []byte {
	b := emptyWindowsPayload()
	b = appendUvarint(b[:len(b)-1], 1)         // one queue
	b = appendUvarint(b, maxRegisterEntries-1) // max depth: 2^20 levels of one cell
	b = appendUvarint(b, 1)                    // granule
	b = appendUvarint(b, 0)                    // top
	return appendUvarint(b, 0)                 // no occupied levels
}

// TestDecodeWindowsAllocatesByPayload: what a decode allocates follows the
// bytes it is given, not the register geometry they declare.
func TestDecodeWindowsAllocatesByPayload(t *testing.T) {
	b := emptyWindowsPayload()
	var rec *Record
	var err error
	got := allocatedBy(func() { rec, _, err = decodeWindows(&reader{b: b}) })
	if err != nil {
		t.Fatal(err)
	}
	if cfg := rec.TW.Config(); cfg.EntriesPerSnapshot() != maxRegisterEntries || rec.TW.KeptCells() != 0 {
		t.Fatalf("decoded %d registers holding %d cells, want %d empty ones", cfg.EntriesPerSnapshot(), rec.TW.KeptCells(), maxRegisterEntries)
	}
	if bound := decodeAllocBound(len(b)); got > bound {
		t.Fatalf("decoding %d bytes that declare %d empty cells allocated %d bytes, bound %d", len(b), maxRegisterEntries, got, bound)
	}
	for _, sr := range seededRecords(t, true) {
		enc, err := EncodeRecord(nil, sr.rec)
		if err != nil {
			t.Fatal(err)
		}
		got := allocatedBy(func() { _, _, err = decodeWindows(&reader{b: enc}) })
		if bound := decodeAllocBound(len(enc)); err != nil || got > bound {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes, bound %d (err %v)", sr.name, len(enc), got, bound, err)
		}
	}
}

// TestDecodeMonitorAllocatesByPayload: so does a full decode — a monitor
// allocates for the occupied levels it holds, not for the levels its
// geometry declares.
func TestDecodeMonitorAllocatesByPayload(t *testing.T) {
	b := emptyMonitorPayload()
	var rec *Record
	var err error
	got := allocatedBy(func() { rec, err = DecodeRecord(b) })
	if err != nil {
		t.Fatal(err)
	}
	if cfg := rec.QM[0].Config(); len(rec.QM) != 1 || cfg.Entries() != maxRegisterEntries {
		t.Fatalf("decoded %d monitors of %d entries, want one of %d", len(rec.QM), cfg.Entries(), maxRegisterEntries)
	}
	if levels, _ := rec.QM[0].Levels(); len(levels) != 0 {
		t.Fatalf("decoded %d occupied levels, want none", len(levels))
	}
	if bound := decodeAllocBound(len(b)); got > bound {
		t.Fatalf("decoding %d bytes that declare %d empty monitor entries allocated %d bytes, bound %d", len(b), maxRegisterEntries, got, bound)
	}
	for _, sr := range seededRecords(t, true) {
		enc, err := EncodeRecord(nil, sr.rec)
		if err != nil {
			t.Fatal(err)
		}
		got := allocatedBy(func() { _, err = DecodeRecord(enc) })
		if bound := decodeAllocBound(len(enc)); err != nil || got > bound {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes, bound %d (err %v)", sr.name, len(enc), got, bound, err)
		}
	}
}

// FuzzDecodeRecord feeds the checkpoint decoder arbitrary bytes — it reads
// them from disk and, on a collector, from the network. It must never panic
// or hold more than the geometry limit, and neither the full nor the
// windows-only decode may allocate beyond a multiple of its input; whatever
// decodes must re-encode to bytes
// that decode to an equal record; and the windows-only decode the cold cache
// uses must agree with the full decode on everything it returns.
func FuzzDecodeRecord(f *testing.F) {
	for _, sr := range seededRecords(f, false) {
		enc, err := EncodeRecord(nil, sr.rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(emptyWindowsPayload())
	f.Add(emptyMonitorPayload())
	f.Fuzz(func(t *testing.T, b []byte) {
		var rec, tw *Record
		var err, twErr error
		bound := decodeAllocBound(len(b))
		if got := allocatedBy(func() { rec, err = DecodeRecord(b) }); got > bound {
			t.Fatalf("decode of %d bytes allocated %d, bound %d", len(b), got, bound)
		}
		if got := allocatedBy(func() { tw, _, twErr = decodeWindows(&reader{b: b}) }); got > bound {
			t.Fatalf("windows-only decode of %d bytes allocated %d, bound %d", len(b), got, bound)
		}
		if twErr == nil && tw.MemBytes() > fuzzMemBound {
			t.Fatalf("windows-only decode of %d bytes holds %d bytes", len(b), tw.MemBytes())
		}
		if err != nil {
			return
		}
		if rec.MemBytes() > fuzzMemBound {
			t.Fatalf("decode of %d bytes holds %d bytes", len(b), rec.MemBytes())
		}
		if twErr != nil {
			t.Fatalf("full decode succeeded, windows-only decode failed: %v", twErr)
		}
		if tw.QM != nil {
			t.Fatal("windows-only decode returned queue monitors")
		}
		full := *rec
		full.QM = nil
		assertRecordsEqual(t, &full, tw)
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		again, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		assertRecordsEqual(t, rec, again)
	})
}

// TestFuzzCorpusCurrent keeps the committed corpus honest: one file per
// seeded record, holding exactly the bytes the encoder writes for it today
// (run with -update-corpus after a deliberate format change).
func TestFuzzCorpusCurrent(t *testing.T) {
	for _, sr := range seededRecords(t, false) {
		enc, err := EncodeRecord(nil, sr.rec)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", enc))
		path := filepath.Join(fuzzCorpusDir, sr.name)
		if *updateCorpus {
			if err := os.MkdirAll(fuzzCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s is not the current encoding of the %s record; rerun with -update-corpus if the format changed on purpose", path, sr.name)
		}
	}
}
