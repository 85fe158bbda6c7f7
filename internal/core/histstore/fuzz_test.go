package histstore

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzDecodeRecord from the seeded records")

const fuzzCorpusDir = "testdata/fuzz/FuzzDecodeRecord"

// fuzzMemBound is the most a decoded record may occupy whatever the payload
// says: the codec's geometry limit in window cells and in monitor entries,
// plus slack for headers.
var fuzzMemBound = int64(maxRegisterEntries)*(32+64) + 1<<20

// FuzzDecodeRecord feeds the checkpoint decoder arbitrary bytes — it reads
// them from disk and, on a collector, from the network. It must never panic
// or allocate beyond the geometry limit; whatever decodes must re-encode to
// bytes that decode to an equal record; and the windows-only decode the cold
// cache uses must agree with the full decode on everything it returns.
func FuzzDecodeRecord(f *testing.F) {
	for _, sr := range seededRecords(f, false) {
		enc, err := EncodeRecord(nil, sr.rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeRecord(b)
		tw, _, twErr := decodeWindows(&reader{b: b})
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
