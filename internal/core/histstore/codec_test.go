package histstore

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
)

func twConfig() timewindow.Config {
	return timewindow.Config{M0: 3, K: 6, Alpha: 1, T: 3, MinPktTxDelayNs: 10}
}

func qmConfig() qmonitor.Config {
	return qmonitor.Config{MaxDepthCells: 1024, GranuleCells: 4}
}

func testKey(n int) flow.Key {
	return flow.Key{
		SrcIP: [4]byte{10, byte(n >> 8), 0, byte(n)}, DstIP: [4]byte{10, 128, 0, 1},
		SrcPort: uint16(33000 + n), DstPort: 80, Proto: flow.ProtoTCP,
	}
}

// buildRecord drives live register structures with a seeded trace and
// snapshots them, so encoded records look like real checkpoints (long runs
// of adjacent cells, shared flows, sparse monitors).
func buildRecord(t *testing.T, seed int64, packets int) *Record {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tw, err := timewindow.New(twConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := qmonitor.New(qmConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := uint64(1000)
	depth := 0
	for i := 0; i < packets; i++ {
		ts += uint64(rng.Intn(24) + 1)
		depth += rng.Intn(17) - 8
		if depth < 0 {
			depth = 0
		}
		f := testKey(rng.Intn(40))
		tw.Insert(f, ts)
		qm.Observe(f, depth)
	}
	return &Record{
		Port:       3,
		FreezeTime: ts + 1,
		PrevFreeze: 1000,
		Special:    seed%2 == 0,
		TW:         tw.Snapshot(),
		QM:         []*qmonitor.Snapshot{qm.Snapshot()},
	}
}

// assertRecordsEqual compares two records field by field, down to each
// window's anchor and kept cells — span start and flow key, whatever ids the
// two flow tables give the flows — and each monitor entry.
func assertRecordsEqual(t *testing.T, want, got *Record) {
	t.Helper()
	if got.Port != want.Port || got.FreezeTime != want.FreezeTime ||
		got.PrevFreeze != want.PrevFreeze || got.Special != want.Special {
		t.Fatalf("header mismatch: got %+v want %+v",
			[4]any{got.Port, got.FreezeTime, got.PrevFreeze, got.Special},
			[4]any{want.Port, want.FreezeTime, want.PrevFreeze, want.Special})
	}
	if got.TW.Config() != want.TW.Config() {
		t.Fatalf("TW config mismatch: got %+v want %+v", got.TW.Config(), want.TW.Config())
	}
	for i := 0; i < want.TW.Config().T; i++ {
		ga, gok := got.TW.Anchor(i)
		wa, wok := want.TW.Anchor(i)
		if ga != wa || gok != wok || !slices.Equal(resolved(got.TW, i), resolved(want.TW, i)) {
			t.Fatalf("window %d differs after round trip", i)
		}
	}
	if len(got.QM) != len(want.QM) {
		t.Fatalf("QM count %d, want %d", len(got.QM), len(want.QM))
	}
	for q := range want.QM {
		if got.QM[q].Config() != want.QM[q].Config() || got.QM[q].Top() != want.QM[q].Top() {
			t.Fatalf("QM[%d] config/top mismatch", q)
		}
		gl, ge := got.QM[q].Levels()
		wl, we := want.QM[q].Levels()
		if !slices.Equal(gl, wl) || !slices.Equal(ge, we) {
			t.Fatalf("QM[%d] entries differ after round trip", q)
		}
	}
}

// resolvedRef is an index cell with its flow resolved.
type resolvedRef struct {
	start uint64
	flow  flow.Key
}

// resolved lists window i's kept cells with their flows resolved.
func resolved(f *timewindow.Filtered, i int) []resolvedRef {
	var out []resolvedRef
	for _, ref := range f.Window(i) {
		out = append(out, resolvedRef{ref.Start, f.Flows()[ref.Flow]})
	}
	return out
}

// TestCodecRoundTrip: a decoded record is the record it was encoded from —
// the same index, flow table and monitors, not merely equal answers.
func TestCodecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rec := buildRecord(t, seed, 3000)
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertRecordsEqual(t, rec, dec)
		if !reflect.DeepEqual(dec, rec) {
			t.Fatalf("seed %d: the decoded record is not the encoded one", seed)
		}
	}
}

// TestCodecRoundTripQueries proves the stronger property the differential
// tests rely on: a decoded checkpoint answers queries bit-identically to
// the original (filter, index, and accumulate over the same cells).
func TestCodecRoundTripQueries(t *testing.T) {
	rec := buildRecord(t, 7, 5000)
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := rec.TW, dec.TW
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		a := uint64(rng.Intn(40000))
		b := a + uint64(rng.Intn(20000))
		if !reflect.DeepEqual(f1.Query(a, b), f2.Query(a, b)) {
			t.Fatalf("query [%d,%d) differs between original and decoded", a, b)
		}
	}
	c1 := rec.QM[0].OriginalCulprits()
	c2 := dec.QM[0].OriginalCulprits()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("original culprits differ between original and decoded")
	}
}

// TestCodecEmpty round-trips a checkpoint with untouched registers.
func TestCodecEmpty(t *testing.T) {
	tw, _ := timewindow.New(twConfig(), nil)
	qm, _ := qmonitor.New(qmConfig(), nil)
	rec := &Record{Port: 0, FreezeTime: 10, PrevFreeze: 5,
		TW: tw.Snapshot(), QM: []*qmonitor.Snapshot{qm.Snapshot()}}
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	assertRecordsEqual(t, rec, dec)
}

// TestCodecCompression pins the codec's size claim: a busy checkpoint
// encodes at least 6x smaller than its in-memory form, the windows' index
// and the monitor's occupied levels (measured: 7.3x).
func TestCodecCompression(t *testing.T) {
	rec := buildRecord(t, 3, 20000)
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	raw := rec.MemBytes()
	ratio := float64(raw) / float64(len(enc))
	t.Logf("in-memory %d bytes, encoded %d bytes: %.1fx", raw, len(enc), ratio)
	if ratio < 6 {
		t.Fatalf("encoded checkpoint only %.1fx smaller than in-memory form, want >= 6x", ratio)
	}
}

// TestCodecDeterministic: same record, same bytes (the differential and
// recovery tests lean on this).
func TestCodecDeterministic(t *testing.T) {
	rec := buildRecord(t, 5, 2000)
	a, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

// TestCodecTruncationRejected: every strict prefix of a valid payload must
// fail to decode (error, never panic, never a silently short record).
func TestCodecTruncationRejected(t *testing.T) {
	rec := buildRecord(t, 11, 1500)
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		cut := rng.Intn(len(enc))
		if _, err := DecodeRecord(enc[:cut]); err == nil {
			// A cut can only be decodable if it lands exactly at the end;
			// strict prefixes must fail.
			t.Fatalf("truncated payload (%d of %d bytes) decoded without error", cut, len(enc))
		}
	}
}

// TestCodecCorruptionSafe flips bytes across the payload and requires
// decode to either error out or produce a structurally valid record —
// never panic or hang.
func TestCodecCorruptionSafe(t *testing.T) {
	rec := buildRecord(t, 13, 1500)
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	buf := make([]byte, len(enc))
	for i := 0; i < 500; i++ {
		copy(buf, enc)
		buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
		dec, err := DecodeRecord(buf)
		if err != nil {
			continue
		}
		// Survived the flip: the record must still be self-consistent.
		if dec.TW == nil {
			t.Fatal("corrupt decode returned nil read without error")
		}
	}
}

func BenchmarkCheckpointEncode(b *testing.B) {
	rec := buildRecordB(b, 3, 20000)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = EncodeRecord(buf[:0], rec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkCheckpointDecode(b *testing.B) {
	rec := buildRecordB(b, 3, 20000)
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRecord(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// buildRecordB is buildRecord for benchmarks.
func buildRecordB(b *testing.B, seed int64, packets int) *Record {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	tw, err := timewindow.New(twConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	qm, err := qmonitor.New(qmConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	ts := uint64(1000)
	depth := 0
	for i := 0; i < packets; i++ {
		ts += uint64(rng.Intn(24) + 1)
		depth += rng.Intn(17) - 8
		if depth < 0 {
			depth = 0
		}
		f := testKey(rng.Intn(40))
		tw.Insert(f, ts)
		qm.Observe(f, depth)
	}
	return &Record{Port: 3, FreezeTime: ts + 1, PrevFreeze: 1000,
		TW: tw.Snapshot(), QM: []*qmonitor.Snapshot{qm.Snapshot()}}
}
