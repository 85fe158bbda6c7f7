package histstore

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"printqueue/internal/core/qmonitor"
	"printqueue/internal/flow"
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
// windows-only, of any version: a v2 or v3 cell takes one payload byte and
// 16 in memory; a v1 cell two, and 36 as a cell plus 20 as an index entry
// and its interning; a dictionary flow 13 and at most 48, its packed form
// for the monitors included; a kept monitor level one in a v3 run (two in
// v2, four in v1) and 36; the rest is headers — whatever geometry the
// payload declares.
func decodeAllocBound(n int) uint64 { return 64*uint64(n) + 64<<10 }

// emptyWindowsPayload is a record of the given version declaring the largest
// geometry the codec accepts — 16 windows of 2^16 cells — with every window
// live and empty: one byte each. The decoder used to allocate all 2^20 cells
// for it.
func emptyWindowsPayload(version byte) []byte {
	b := []byte{version, 0}
	b = appendUvarint(b, 1)                    // port
	b = appendUvarint(b, 100)                  // freeze time
	b = appendUvarint(b, 50)                   // freeze - prev
	for _, v := range []uint64{3, 16, 1, 16} { // m0, k, alpha, T
		b = appendUvarint(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(10))
	if version == 1 {
		b = appendUvarint(b, 0) // no flows
	} else {
		b = appendUvarint(b, 1<<40) // an anchor far enough past t=0 for all 16 windows
		b = appendUvarint(b, 0)     // no index flows
		b = appendUvarint(b, 0)     // no monitor flows
	}
	b = append(b, make([]byte, 16)...) // 16 windows, 0 cells each
	return appendUvarint(b, 0)         // no queues
}

// emptyMonitorPayload is emptyWindowsPayload with one queue monitor of the
// largest geometry the codec accepts — 2^20 levels — and none occupied. The
// decoder used to allocate all 2^20 entries, 64 MB, for it.
func emptyMonitorPayload(version byte) []byte {
	b := emptyWindowsPayload(version)
	b = appendUvarint(b[:len(b)-1], 1)         // one queue
	b = appendUvarint(b, maxRegisterEntries-1) // max depth: 2^20 levels of one cell
	b = appendUvarint(b, 1)                    // granule
	b = appendUvarint(b, 0)                    // top
	return appendUvarint(b, 0)                 // no occupied levels
}

// runPayload is a version-3 record with no cell kept and one queue monitor
// of 2^16 levels of one cell, every one occupied by a single run of rises of
// the one dictionary flow: a byte per level, the most levels a payload can
// declare per byte.
func runPayload() []byte {
	const levels = 1 << 16
	b := runHeaderPayload(levels-1, levels, 0, levels-2, 1)
	return append(b, make([]byte, levels)...) // flow id 0 for every level
}

// runHeaderPayload is a version-3 record with no cell kept, one dictionary
// flow and one queue monitor of maxDepth+1 levels of one cell, nOcc of them
// occupied, written from a run header at level skip: the run's length less
// two and its first sequence number as a delta against 0. The caller
// appends the run's flow ids.
func runHeaderPayload(maxDepth, nOcc, skip, extra uint64, seqDelta int64) []byte {
	b := []byte{codecVersion, recFlagEmpty}
	b = appendUvarint(b, 1)                  // port
	b = appendUvarint(b, 100)                // freeze time
	b = appendUvarint(b, 50)                 // freeze - prev
	for _, v := range []uint64{3, 6, 1, 3} { // m0, k, alpha, T
		b = appendUvarint(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(10))
	b = appendUvarint(b, 0) // no index flows
	b = appendUvarint(b, 1) // one monitor flow
	b = testKey(1).AppendBinary(b)
	b = appendUvarint(b, 1) // one queue
	b = appendUvarint(b, maxDepth)
	b = appendUvarint(b, 1) // granule
	b = appendUvarint(b, 0) // top
	b = appendUvarint(b, nOcc)
	b = appendUvarint(b, skip<<2) // halves 0: a run
	b = appendUvarint(b, extra)
	return appendZigzag(b, seqDelta)
}

// hostileRuns are version-3 payloads whose one monitor run the decoder must
// refuse, each beside the run it mangles: a run of three rises from level
// 0 of 8, sequence numbers 5 to 7, that decodes.
func hostileRuns() []namedPayload {
	run := func(maxDepth, nOcc, skip, extra uint64, seqDelta int64, ids ...byte) []byte {
		return append(runHeaderPayload(maxDepth, nOcc, skip, extra, seqDelta), ids...)
	}
	return []namedPayload{
		{"run_past_level_count", run(7, 2, 0, 1, 5, 0, 0, 0)},      // three rises, two levels declared
		{"run_past_register_array", run(2, 3, 1, 1, 5, 0, 0, 0)},   // three rises from level 1 of 3
		{"run_seq_overflows", run(7, 3, 0, 1, -2, 0, 0, 0)},        // 2^64-2, 2^64-1, then 2^64
		{"run_id_outside_dictionary", run(7, 3, 0, 1, 5, 0, 1, 0)}, // flow id 1 of one flow
	}
}

// TestDecodeRefusesHostileRuns: a run the payload cannot hold is an error,
// and the run it mangles decodes to the levels and sequence numbers its
// header declares.
func TestDecodeRefusesHostileRuns(t *testing.T) {
	rec, err := DecodeRecord(append(runHeaderPayload(7, 3, 0, 1, 5), 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	levels, entries := rec.QM[0].Levels()
	key := testKey(1)
	k := key.Pack()
	want := []qmonitor.Entry{{Up: qmonitor.Half{Flow: k, Seq: 5}}, {Up: qmonitor.Half{Flow: k, Seq: 6}}, {Up: qmonitor.Half{Flow: k, Seq: 7}}}
	if !slices.Equal(levels, []uint32{0, 1, 2}) || !slices.Equal(entries, want) {
		t.Fatalf("the run decodes to levels %v, entries %+v", levels, entries)
	}
	for _, h := range hostileRuns() {
		if _, err := DecodeRecord(h.payload); err == nil {
			t.Fatalf("%s: decoded", h.name)
		}
	}
}

// TestDecodeWindowsAllocatesByPayload: what a decode allocates follows the
// bytes it is given, not the register geometry they declare, for records of
// every version.
func TestDecodeWindowsAllocatesByPayload(t *testing.T) {
	for _, version := range []byte{1, 2, codecVersion} {
		b := emptyWindowsPayload(version)
		var rec *Record
		var err error
		got := allocatedBy(func() { rec, _, err = decodeWindows(&reader{b: b}, false) })
		if err != nil {
			t.Fatal(err)
		}
		if cfg := rec.TW.Config(); cfg.EntriesPerSnapshot() != maxRegisterEntries || rec.TW.KeptCells() != 0 {
			t.Fatalf("v%d: decoded %d registers holding %d cells, want %d empty ones", version, cfg.EntriesPerSnapshot(), rec.TW.KeptCells(), maxRegisterEntries)
		}
		if bound := decodeAllocBound(len(b)); got > bound {
			t.Fatalf("v%d: decoding %d bytes that declare %d empty cells allocated %d bytes, bound %d", version, len(b), maxRegisterEntries, got, bound)
		}
	}
	for _, enc := range payloadsOfEveryVersion(t) {
		var err error
		got := allocatedBy(func() { _, _, err = decodeWindows(&reader{b: enc.payload}, false) })
		if bound := decodeAllocBound(len(enc.payload)); err != nil || got > bound {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes, bound %d (err %v)", enc.name, len(enc.payload), got, bound, err)
		}
	}
}

// namedPayload is an encoded record and where it comes from.
type namedPayload struct {
	name    string
	payload []byte
}

// payloadsOfEveryVersion returns real records of every version: the paper
// geometry's seeded records as this build encodes them (runs of rises
// among them), the committed version-1 and version-2 fuzz corpus, every
// record of the version-1 and version-2 control-plane logs, and runPayload.
func payloadsOfEveryVersion(t *testing.T) []namedPayload {
	t.Helper()
	var out []namedPayload
	for _, sr := range seededRecords(t, true) {
		enc, err := EncodeRecord(nil, sr.rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedPayload{sr.name, enc})
	}
	for _, sr := range seededRecords(t, false) {
		for _, version := range []byte{1, 2} {
			if old := oldCorpus(t, version, sr.name); old != nil {
				out = append(out, namedPayload{fmt.Sprintf("v%d_%s", version, sr.name), old})
			}
		}
	}
	for _, log := range []string{"seedlog_v3", "seedlog_v4"} {
		dir, _ := copySeedlog(t, log)
		st := openTestStore(t, dir, Options{})
		err := st.ReplaySince(0, func(payload []byte, _ int, freeze, _ uint64, _ bool) error {
			out = append(out, namedPayload{fmt.Sprintf("%s@%d", log, freeze), bytes.Clone(payload)})
			return nil
		})
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return append(out, namedPayload{"one_run", runPayload()})
}

// oldCorpus returns the committed corpus entry the version-1 or version-2
// writer left of the named seeded record, nil for a shape added since.
func oldCorpus(t *testing.T, version byte, name string) []byte {
	t.Helper()
	path := filepath.Join(fuzzCorpusDir, fmt.Sprintf("v%d_%s", version, name))
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
	payload, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(payload)
}

// TestDecodeMonitorAllocatesByPayload: so does a full decode — a monitor
// allocates for the occupied levels it holds, not for the levels its
// geometry declares — of every version, runs of rises included.
func TestDecodeMonitorAllocatesByPayload(t *testing.T) {
	for _, version := range []byte{1, 2, codecVersion} {
		b := emptyMonitorPayload(version)
		var rec *Record
		var err error
		got := allocatedBy(func() { rec, err = DecodeRecord(b) })
		if err != nil {
			t.Fatal(err)
		}
		if cfg := rec.QM[0].Config(); len(rec.QM) != 1 || cfg.Entries() != maxRegisterEntries {
			t.Fatalf("v%d: decoded %d monitors of %d entries, want one of %d", version, len(rec.QM), cfg.Entries(), maxRegisterEntries)
		}
		if levels, _ := rec.QM[0].Levels(); len(levels) != 0 {
			t.Fatalf("v%d: decoded %d occupied levels, want none", version, len(levels))
		}
		if bound := decodeAllocBound(len(b)); got > bound {
			t.Fatalf("v%d: decoding %d bytes that declare %d empty monitor entries allocated %d bytes, bound %d", version, len(b), maxRegisterEntries, got, bound)
		}
	}
	for _, enc := range payloadsOfEveryVersion(t) {
		var err error
		got := allocatedBy(func() { _, err = DecodeRecord(enc.payload) })
		if bound := decodeAllocBound(len(enc.payload)); err != nil || got > bound {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes, bound %d (err %v)", enc.name, len(enc.payload), got, bound, err)
		}
	}
}

// FuzzDecodeRecord feeds the checkpoint decoder arbitrary bytes — it reads
// them from disk and, on a collector, from the network. It must never panic
// or hold more than the geometry limit, and neither the full nor the
// windows-only decode may allocate beyond a multiple of its input; whatever
// decodes, of any version, must re-encode to bytes that decode to an
// equal record; and the windows-only decode the cold cache uses must agree
// with the full decode on everything it returns. The committed corpus holds
// every seeded record as this build writes it and, under v1_ and v2_ names,
// as the version-1 and version-2 writers did, so the read-only paths are
// fuzzed too, and the hostile payloads of hostileRuns and hostileV1.
func FuzzDecodeRecord(f *testing.F) {
	for _, sr := range seededRecords(f, false) {
		enc, err := EncodeRecord(nil, sr.rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, version := range []byte{1, 2, codecVersion} {
		f.Add(emptyWindowsPayload(version))
		f.Add(emptyMonitorPayload(version))
	}
	f.Add(runPayload())
	f.Fuzz(func(t *testing.T, b []byte) {
		var rec, tw *Record
		var err, twErr error
		bound := decodeAllocBound(len(b))
		if got := allocatedBy(func() { rec, err = DecodeRecord(b) }); got > bound {
			t.Fatalf("decode of %d bytes allocated %d, bound %d", len(b), got, bound)
		}
		if got := allocatedBy(func() { tw, _, twErr = decodeWindows(&reader{b: b}, false) }); got > bound {
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
			if seen := map[flow.Key]bool{}; slices.ContainsFunc(rec.TW.Flows(), func(k flow.Key) bool { dup := seen[k]; seen[k] = true; return dup }) {
				return // a forged flow table listing a flow twice: refused
			}
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
// (run with -update-corpus after a deliberate format change), and one per
// hostile run (TestDecodeRefusesHostileRuns) and hostile v1 payload
// (hostileV1); and, under the v1_ and v2_ names, the encodings older writers
// left of the same records, which must still decode to exactly those
// records.
func TestFuzzCorpusCurrent(t *testing.T) {
	old := map[byte]int{}
	for _, sr := range seededRecords(t, false) {
		for _, version := range []byte{1, 2} {
			payload := oldCorpus(t, version, sr.name)
			if payload == nil {
				continue
			}
			old[version]++
			rec, err := DecodeRecord(payload)
			if err != nil || payload[0] != version || !reflect.DeepEqual(rec, sr.rec) {
				t.Fatalf("v%d_%s: version %d, decodes to another record than the %s record (%v)", version, sr.name, payload[0], sr.name, err)
			}
		}
	}
	if old[1] < 10 || old[2] < 11 {
		t.Fatalf("%d version-1 and %d version-2 corpus entries, want the 10 and 11 the older writers left", old[1], old[2])
	}
	var current []namedPayload
	for _, sr := range seededRecords(t, false) {
		enc, err := EncodeRecord(nil, sr.rec)
		if err != nil {
			t.Fatal(err)
		}
		current = append(current, namedPayload{sr.name, enc})
	}
	for _, h := range append(hostileRuns(), hostileV1()...) {
		current = append(current, namedPayload{"hostile_" + h.name, h.payload})
	}
	for _, c := range current {
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", c.payload))
		path := filepath.Join(fuzzCorpusDir, c.name)
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
			t.Fatalf("%s is not the current encoding of %s; rerun with -update-corpus if the format changed on purpose", path, c.name)
		}
	}
}
