package histstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"printqueue/internal/telemetry"
)

const segmentCorpusDir = "testdata/fuzz/FuzzOpenSegment"

// sealedSegment returns the bytes of a sealed segment this build writes —
// three small chained records of port 1, the first a monitor run of rises —
// and where its footer starts.
func sealedSegment(tb testing.TB) (seg []byte, footer int) {
	tb.Helper()
	dir := tb.TempDir()
	st, err := Open(Options{Dir: dir}, telemetry.NewRegistry())
	if err != nil {
		tb.Fatal(err)
	}
	recs := map[string]*Record{}
	for _, sr := range seededRecords(tb, false) {
		recs[sr.name] = sr.rec
	}
	run := append(runHeaderPayload(7, 3, 0, 1, 5), 0, 0, 0) // port 1, (50,100]
	if err := st.AppendEncoded(run, 1, 100, 50, false); err != nil {
		tb.Fatal(err)
	}
	prev := uint64(100)
	for _, name := range []string{"empty", "anchor_only"} {
		rec := *recs[name]
		rec.Port, rec.PrevFreeze, rec.FreezeTime = 1, prev, prev+100
		prev = rec.FreezeTime
		if err := st.Append(&rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	seg, err = os.ReadFile(segPath(dir, 1))
	if err != nil {
		tb.Fatal(err)
	}
	tr := seg[len(seg)-segTrailerSize:]
	return seg, len(seg) - segTrailerSize - int(binary.LittleEndian.Uint32(tr[20:]))
}

// segmentSeeds are the segment files FuzzOpenSegment starts from: a sealed
// segment of version-3 records, and the damage a crash or a bad disk leaves
// in one.
func segmentSeeds(tb testing.TB) []namedPayload {
	tb.Helper()
	seg, footer := sealedSegment(tb)
	trailer := len(seg) - segTrailerSize
	// reseal replaces the footer and rewrites the trailer's length and
	// checksum to match, so the new footer is read and not refused unread.
	reseal := func(newFooter []byte) []byte {
		out := append(bytes.Clone(seg[:footer]), newFooter...)
		tr := bytes.Clone(seg[trailer:])
		binary.LittleEndian.PutUint32(tr[20:], uint32(len(newFooter)))
		binary.LittleEndian.PutUint32(tr[24:], crc32.Checksum(newFooter, crcTable))
		return append(out, tr...)
	}
	_, n := binary.Uvarint(seg[footer:])
	countPastBytes := append(binary.AppendUvarint(nil, 1<<20), seg[footer+n:trailer]...)
	footerLenPastFile := bytes.Clone(seg)
	binary.LittleEndian.PutUint32(footerLenPastFile[trailer+20:], uint32(len(seg)))
	badCRC := bytes.Clone(seg)
	badCRC[trailer+24] ^= 1
	frameLenPast63 := binary.AppendUvarint(bytes.Clone(segHeader[:]), 1<<63)
	frameLenPast63 = append(frameLenPast63, seg[segHeaderSize:footer]...)
	// The footer lists port 1's first two records the other way round:
	// each entry still locates its own record, but out of freeze order.
	index, err := decodeFooter(seg[footer:trailer])
	if err != nil {
		tb.Fatal(err)
	}
	index[0], index[1] = index[1], index[0]
	return []namedPayload{
		{"v3_records", seg},
		{"torn_tail", seg[:footer-7]},
		{"footer_count_past_bytes", reseal(countPastBytes)},
		{"footer_len_past_file", footerLenPastFile},
		{"bad_footer_crc", badCRC},
		{"frame_len_past_2_63", frameLenPast63}, // a length that turns negative as an int64
		{"footer_port_out_of_order", reseal(encodeFooter(index))},
	}
}

// FuzzOpenSegment feeds Open arbitrary segment files — the footer, trailer
// and recovery scan are the store's readers of bytes it did not just
// write. The bytes are opened as the newest segment, the one a crash leaves
// unsealed, and as an older one beside an empty newest segment, which Open
// seals if it has no trailer. Open must not panic nor allocate beyond a
// multiple of the file; it either fails or yields a store whose every
// record the recovery scan indexed decodes. A segment Open takes on its
// trailer's word has its footer read on first use: the read may fail, but
// it too must not panic or allocate beyond the bound. Every store Open
// yields answers Covering and LastFreeze as the linear scans do, on each
// port its records name. The committed corpus holds segmentSeeds.
func FuzzOpenSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, older := range []bool{false, true} {
			dir := t.TempDir()
			path := segPath(dir, 1)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if older {
				if err := os.WriteFile(segPath(dir, 2), segHeader[:], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, trusted, err := openSealed(path, 1)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			bound := decodeAllocBound(len(b))
			var st *Store
			if got := allocatedBy(func() { st, err = Open(Options{Dir: dir}, reg) }); got > bound {
				t.Fatalf("opening a %d-byte segment allocated %d bytes, bound %d", len(b), got, bound)
			}
			if err != nil {
				continue
			}
			n := 0
			ports, bounds := []int{0, 1}, []uint64{0, math.MaxUint64}
			var undecodable, replayErr error
			got := allocatedBy(func() {
				replayErr = st.ReplaySince(0, func(payload []byte, port int, freeze, prev uint64, _ bool) error {
					n++
					if _, err := DecodeRecord(payload); err != nil && undecodable == nil {
						undecodable = fmt.Errorf("record %d: %w", n, err)
					}
					ports, bounds = append(ports, port), append(bounds, prev, freeze)
					return nil
				})
			})
			recovered := st.Stats().RecoveredRecords
			slices.Sort(ports)
			checkCoveringMatchesScan(t, st, slices.Compact(ports), boundIntervals(bounds))
			st.Close()
			if got > bound {
				t.Fatalf("replaying a %d-byte segment allocated %d bytes, bound %d", len(b), got, bound)
			}
			if trusted {
				continue
			}
			if replayErr != nil || undecodable != nil || n != recovered {
				t.Fatalf("the recovery scan indexed %d records; replaying them handed out %d: %v", recovered, n, errors.Join(replayErr, undecodable))
			}
		}
	})
}

// boundIntervals are the intervals between any two of the first few
// boundaries given.
func boundIntervals(bounds []uint64) [][2]uint64 {
	bounds = bounds[:min(len(bounds), 12)]
	var ivs [][2]uint64
	for _, a := range bounds {
		for _, b := range bounds {
			if a < b {
				ivs = append(ivs, [2]uint64{a, b})
			}
		}
	}
	return ivs
}

// TestSegmentCorpusCurrent: the committed FuzzOpenSegment corpus holds the
// seeds segmentSeeds builds from today's writer (rerun with -update-corpus
// after a deliberate format change), and each opens as its damage says: the
// intact segment with every record, the torn tail with every intact one,
// the damaged footers with a refusal to read them, a footer listing a
// port's records out of freeze order with every record, the footer length
// past the file as a recovered segment, and a frame length past 2^63 as a
// torn tail from the header on.
func TestSegmentCorpusCurrent(t *testing.T) {
	for _, seed := range segmentSeeds(t) {
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.payload))
		path := filepath.Join(segmentCorpusDir, seed.name)
		if *updateCorpus {
			if err := os.MkdirAll(segmentCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s is not the current seed; rerun with -update-corpus if the format changed on purpose", path)
		}

		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), seed.payload, 0o644); err != nil {
			t.Fatal(err)
		}
		st := openTestStore(t, dir, Options{})
		n := 0
		err = st.ReplaySince(0, func(payload []byte, _ int, _, _ uint64, _ bool) error {
			n++
			_, err := DecodeRecord(payload)
			return err
		})
		stats := st.Stats()
		st.Close()
		switch seed.name {
		case "v3_records", "footer_port_out_of_order":
			if err != nil || n != 3 {
				t.Fatalf("%s: replayed %d records: %v", seed.name, n, err)
			}
		case "torn_tail":
			if err != nil || n != 2 || stats.TruncatedBytes == 0 {
				t.Fatalf("%s: replayed %d records, truncated %d bytes: %v", seed.name, n, stats.TruncatedBytes, err)
			}
		case "footer_count_past_bytes", "bad_footer_crc":
			if err == nil {
				t.Fatalf("%s: replayed %d records", seed.name, n)
			}
		case "frame_len_past_2_63":
			if err != nil || n != 0 || stats.TruncatedBytes != int64(len(seed.payload)-segHeaderSize) {
				t.Fatalf("%s: replayed %d records, truncated %d bytes: %v", seed.name, n, stats.TruncatedBytes, err)
			}
		case "footer_len_past_file":
			if err != nil || n != 3 || stats.RecoveredRecords != 3 {
				t.Fatalf("%s: recovered %d records, replayed %d: %v", seed.name, stats.RecoveredRecords, n, err)
			}
		}
	}
}

// TestOpenSegmentFooterOutOfOrder pins the committed corpus entry whose
// footer lists port 1's records out of freeze order, as the footer of a
// segment an older build wrote can: the store reads the footer, answers
// Covering and LastFreeze as the linear scan does, with port 1's records in
// freeze order, and appends after the port's newest freeze.
func TestOpenSegmentFooterOutOfOrder(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(segmentCorpusDir, "footer_port_out_of_order"))
	if err != nil {
		t.Fatal(err)
	}
	var seg []byte
	if _, err := fmt.Sscanf(strings.TrimPrefix(string(b), "go test fuzz v1\n"), "[]byte(%q)", &seg); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 1), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir, Options{})
	defer st.Close()
	cps, err := st.Covering(1, 0, math.MaxUint64)
	if err != nil || coverages(cps) != "[(50,100](100,200](200,300]]" {
		t.Fatalf("Covering(1) = %s, %v; want port 1's three records in freeze order", coverages(cps), err)
	}
	if !st.sealed[0].unordered {
		t.Fatal("the footer read as in order")
	}
	checkCoveringMatchesScan(t, st, []int{0, 1, 2}, boundIntervals([]uint64{0, 50, 99, 100, 150, 200, 300, math.MaxUint64}))
	last, _, err := st.LastFreeze(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(smallRecord(t, 1, last, last+100)); err != nil {
		t.Fatal(err)
	}
}
