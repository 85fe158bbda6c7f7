package histstore

// The encoder's byte oracle and the seeded records the tentpole's tests (and
// the fuzz corpus) are built from.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
)

// flowDict is the seed's map-based flow dictionary.
type flowDict struct {
	ids   map[flow.Key]uint64
	flows []flow.Key
}

func (d *flowDict) id(k flow.Key) uint64 {
	if id, ok := d.ids[k]; ok {
		return id
	}
	id := uint64(len(d.flows))
	d.ids[k] = id
	d.flows = append(d.flows, k)
	return id
}

// encodeRecordTwoPass is the seed's EncodeRecord, kept verbatim as the byte
// oracle: it interns every flow in a first walk, writes the dictionary, then
// walks everything again looking each flow up a second time.
func encodeRecordTwoPass(dst []byte, rec *Record) ([]byte, error) {
	if rec.TW == nil {
		return dst, fmt.Errorf("histstore: record without time-window snapshot")
	}
	dst = append(dst, codecVersion)
	var flags byte
	if rec.Special {
		flags |= recFlagSpecial
	}
	dst = append(dst, flags)
	dst = appendUvarint(dst, uint64(rec.Port))
	dst = appendUvarint(dst, rec.FreezeTime)
	dst = appendUvarint(dst, rec.FreezeTime-rec.PrevFreeze)

	cfg := rec.TW.Config()
	dst = appendUvarint(dst, uint64(cfg.M0))
	dst = appendUvarint(dst, uint64(cfg.K))
	dst = appendUvarint(dst, uint64(cfg.Alpha))
	dst = appendUvarint(dst, uint64(cfg.T))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.MinPktTxDelayNs))

	// Two passes over the windows: intern every flow first so the
	// dictionary precedes the cell streams, then emit the streams.
	dict := &flowDict{ids: make(map[flow.Key]uint64, 64)}
	windows := rec.TW.Windows()
	for _, w := range windows {
		for i := range w {
			if w[i].Valid {
				dict.id(w[i].Flow)
			}
		}
	}
	for _, qm := range rec.QM {
		if qm == nil {
			continue
		}
		for _, e := range qm.Entries() {
			if e.Up.Valid {
				dict.id(e.Up.Flow)
			}
			if e.Down.Valid {
				dict.id(e.Down.Flow)
			}
		}
	}
	dst = appendUvarint(dst, uint64(len(dict.flows)))
	for _, k := range dict.flows {
		dst = k.AppendBinary(dst)
	}

	for _, w := range windows {
		dst = encodeWindowTwoPass(dst, w, dict)
	}

	dst = appendUvarint(dst, uint64(len(rec.QM)))
	for _, qm := range rec.QM {
		var err error
		dst, err = encodeMonitorTwoPass(dst, qm, dict)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func encodeWindowTwoPass(dst []byte, w []timewindow.Cell, dict *flowDict) []byte {
	nValid := 0
	for i := range w {
		if w[i].Valid {
			nValid++
		}
	}
	dst = appendUvarint(dst, uint64(nValid))
	if nValid == 0 {
		return dst
	}
	first := 0
	for !w[first].Valid {
		first++
	}
	base := w[first].CycleID
	dst = appendUvarint(dst, base)
	pred := base
	i := 0
	for i < len(w) {
		// Skip the invalid gap.
		skip := 0
		for i < len(w) && !w[i].Valid {
			i++
			skip++
		}
		if i >= len(w) {
			break
		}
		run := 0
		for i+run < len(w) && w[i+run].Valid {
			run++
		}
		dst = appendUvarint(dst, uint64(skip))
		dst = appendUvarint(dst, uint64(run))
		for j := i; j < i+run; j++ {
			dst = appendUvarint(dst, dict.id(w[j].Flow))
			dst = appendZigzag(dst, int64(w[j].CycleID)-int64(pred))
			pred = w[j].CycleID
		}
		i += run
	}
	return dst
}

func encodeMonitorTwoPass(dst []byte, qm *qmonitor.Snapshot, dict *flowDict) ([]byte, error) {
	if qm == nil {
		return dst, fmt.Errorf("histstore: record with nil queue-monitor snapshot")
	}
	cfg := qm.Config()
	dst = appendUvarint(dst, uint64(cfg.MaxDepthCells))
	dst = appendUvarint(dst, uint64(cfg.GranuleCells))
	dst = appendUvarint(dst, uint64(qm.Top()))
	entries := qm.Entries()
	nOcc := 0
	for i := range entries {
		if entries[i].Up.Valid || entries[i].Down.Valid {
			nOcc++
		}
	}
	dst = appendUvarint(dst, uint64(nOcc))
	var predSeq uint64
	skip := 0
	for i := range entries {
		e := entries[i]
		if !e.Up.Valid && !e.Down.Valid {
			skip++
			continue
		}
		dst = appendUvarint(dst, uint64(skip))
		skip = 0
		var halves byte
		if e.Up.Valid {
			halves |= 1
		}
		if e.Down.Valid {
			halves |= 2
		}
		dst = append(dst, halves)
		if e.Up.Valid {
			dst = appendUvarint(dst, dict.id(e.Up.Flow))
			dst = appendZigzag(dst, int64(e.Up.Seq)-int64(predSeq))
			predSeq = e.Up.Seq
		}
		if e.Down.Valid {
			dst = appendUvarint(dst, dict.id(e.Down.Flow))
			dst = appendZigzag(dst, int64(e.Down.Seq)-int64(predSeq))
			predSeq = e.Down.Seq
		}
	}
	return dst, nil
}

// seededRecord names one record shape the codec must handle.
type seededRecord struct {
	name string
	rec  *Record
}

// How a seeded record's registers are frozen: whole arrays, as every record
// was before checkpoints were trimmed, or one of the shapes the control
// plane's freezes produce.
const (
	freezeWhole    = iota // Windows.Snapshot + Monitor.Snapshot
	freezeWrapping        // Windows.Freeze over a coverage that wraps window 0's ring: two short spans there
	freezeAnchor          // Windows.Freeze over an empty coverage: window 0's anchor cell and nothing else
	freezeToTop           // Windows.Snapshot + Monitor.Freeze: the staircase, nothing above the top
)

// seededRecords drives live register structures with seeded traces shaped
// like the paper's workloads: UW-like (thousands of flows, so the dictionary
// and the interner's growth matter), WS-like (a handful of flows in long
// runs, the last-key shortcut), untouched registers, a data-plane (Special)
// checkpoint, a multi-queue port, and the three shapes a trimmed freeze adds.
// paper selects the paper's register geometry (2^12 cells x 4 windows,
// 2^14-entry monitors) over the small one the rest of this package's tests
// use.
func seededRecords(tb testing.TB, paper bool) []seededRecord {
	tb.Helper()
	twc, qmc := twConfig(), qmConfig()
	if paper {
		twc = timewindow.Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
		qmc = qmonitor.Config{MaxDepthCells: 32768, GranuleCells: 2}
	}
	build := func(seed int64, flows, run, packets, queues int, special bool, freeze int) *Record {
		rng := rand.New(rand.NewSource(seed))
		tw, err := timewindow.New(twc, nil)
		if err != nil {
			tb.Fatal(err)
		}
		qms := make([]*qmonitor.Monitor, queues)
		for q := range qms {
			if qms[q], err = qmonitor.New(qmc, nil); err != nil {
				tb.Fatal(err)
			}
		}
		ts, depth := uint64(1000), 0
		var f flow.Key
		// A wrapping coverage starts an eighth of a ring before a cycle
		// boundary of window 0 and ends an eighth to a quarter past it, so
		// the trace runs on until its last packet lands there.
		ring := twc.WindowPeriod(0)
		for i := 0; i < packets || (freeze == freezeWrapping && (ts%ring < ring/8 || ts%ring > ring/4)); i++ {
			ts += uint64(rng.Intn(int(twc.CellPeriod(0))*3) + 1)
			depth += rng.Intn(17) - 8
			if depth < 0 {
				depth = 0
			}
			if i%run == 0 {
				f = testKey(rng.Intn(flows))
			}
			tw.Insert(f, ts)
			if queues > 0 {
				qms[rng.Intn(queues)].Observe(f, depth)
			}
		}
		rec := &Record{Port: int(seed), FreezeTime: ts + 1, PrevFreeze: 1000, Special: special}
		switch freeze {
		case freezeWrapping:
			rec.PrevFreeze = ts - ts%ring - ring/8
			rec.TW = tw.Freeze(rec.PrevFreeze, rec.FreezeTime)
			if pos, _ := rec.TW.Window(0); len(pos) < 4 || pos[0] > uint32(twc.Cells()/4) || pos[len(pos)-1] < uint32(twc.Cells()*7/8) {
				tb.Fatalf("coverage (%d,%d] does not wrap window 0's ring: positions %v", rec.PrevFreeze, rec.FreezeTime, pos)
			}
		case freezeAnchor:
			rec.PrevFreeze = rec.FreezeTime
			rec.TW = tw.Freeze(rec.PrevFreeze, rec.FreezeTime)
			if rec.TW.KeptCells() != 1 {
				tb.Fatalf("empty coverage keeps %d cells, want the anchor alone", rec.TW.KeptCells())
			}
		default:
			rec.TW = tw.Snapshot()
		}
		gaps := 0
		for _, qm := range qms {
			if freeze == freezeWhole {
				rec.QM = append(rec.QM, qm.Snapshot())
				continue
			}
			rec.QM = append(rec.QM, qm.Freeze())
			gaps += staircaseGaps(qm.Snapshot(), rec.QM[len(rec.QM)-1])
		}
		if freeze == freezeToTop && gaps == 0 {
			tb.Fatalf("monitors frozen to their staircase leave no gap below a top")
		}
		return rec
	}
	n := 4000
	if paper {
		n = 60000
	}
	return []seededRecord{
		{"uw_many_flows", build(1, 5000, 1, n, 1, false, freezeWhole)},
		{"ws_few_flows", build(2, 6, 40, n, 1, false, freezeWhole)},
		{"empty", build(3, 1, 1, 0, 1, false, freezeWhole)},
		{"special", build(4, 40, 3, n/4, 1, true, freezeWhole)},
		{"multi_queue", build(5, 300, 2, n, 8, false, freezeWhole)},
		{"no_queues", build(6, 40, 1, n/8, 0, false, freezeWhole)},
		{"coverage_wraps_ring", build(7, 300, 2, n, 1, false, freezeWrapping)},
		{"anchor_only", build(8, 40, 1, n/4, 2, true, freezeAnchor)},
		{"monitor_ends_at_top", build(9, 40, 3, n/4, 2, false, freezeToTop)},
		{"monitor_staircase", build(10, 300, 1, n, 3, true, freezeToTop)},
	}
}

// staircaseGaps counts the levels below the top that a whole read occupies
// and a freeze does not list: the interior gaps the staircase trim leaves.
func staircaseGaps(whole, frozen *qmonitor.Snapshot) int {
	all, kept := whole.Entries(), frozen.Entries()
	gaps := 0
	for level := 0; level < frozen.Top(); level++ {
		if all[level] != (qmonitor.Entry{}) && kept[level] == (qmonitor.Entry{}) {
			gaps++
		}
	}
	return gaps
}

// TestEncodeMatchesTwoPassOracle is the byte-identity property of the
// one-pass encoder: for every seeded record shape, in both geometries, it
// writes exactly the bytes the seed's two-pass encoder wrote — so
// codecVersion stays 1 and old logs and new logs are the same logs — and a
// decoded record re-encodes to the bytes it came from.
func TestEncodeMatchesTwoPassOracle(t *testing.T) {
	for _, paper := range []bool{false, true} {
		for _, sr := range seededRecords(t, paper) {
			want, err := encodeRecordTwoPass(nil, sr.rec)
			if err != nil {
				t.Fatalf("%s: oracle: %v", sr.name, err)
			}
			// A dirty, reused destination: the encoder must only append.
			got, err := EncodeRecord([]byte("prefix"), sr.rec)
			if err != nil {
				t.Fatalf("%s: %v", sr.name, err)
			}
			if !bytes.Equal(got[len("prefix"):], want) {
				t.Fatalf("%s (paper=%v): one-pass encoding differs from the two-pass oracle (%d vs %d bytes)",
					sr.name, paper, len(got)-len("prefix"), len(want))
			}
			dec, err := DecodeRecord(want)
			if err != nil {
				t.Fatalf("%s: decode: %v", sr.name, err)
			}
			assertRecordsEqual(t, sr.rec, dec)
			again, err := EncodeRecord(nil, dec)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", sr.name, err)
			}
			if !bytes.Equal(again, want) {
				t.Fatalf("%s (paper=%v): decode → re-encode changed the bytes", sr.name, paper)
			}
		}
	}
}

// TestEncodeSteadyStateAllocs: with a warm destination buffer and warm
// pools an encode allocates nothing — it runs on the snapshotter for every
// retired checkpoint.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not retain under the race detector")
	}
	rec := seededRecords(t, false)[0].rec
	buf, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if buf, err = EncodeRecord(buf[:0], rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 { // a GC may empty the pools once mid-run
		t.Fatalf("warm EncodeRecord allocates %.1f times per call, want 0", allocs)
	}
}

// TestEncodeRefusesOversizeGeometry: what the decoder would refuse to
// allocate for, the encoder refuses to write.
func TestEncodeRefusesOversizeGeometry(t *testing.T) {
	cfg := timewindow.Config{M0: 3, K: 20, Alpha: 1, T: 2, MinPktTxDelayNs: 10}
	windows := make([][]timewindow.Cell, cfg.T)
	for i := range windows {
		windows[i] = make([]timewindow.Cell, cfg.Cells())
	}
	tw, err := timewindow.NewSnapshot(cfg, windows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeRecord(nil, &Record{TW: tw}); err == nil {
		t.Fatalf("encoded a record of %d cells, limit %d", cfg.EntriesPerSnapshot(), maxRegisterEntries)
	}
}

// TestSeedWrittenLogOpensBitIdentically opens a log written by the code
// before the one-pass encoder (testdata/seedlog_v1: nine records in four
// sealed segments, two ports, each port's coverage chained; written by the
// seed commit's Store from buildRecord(seed i+1, 300+200i packets)). The
// same records rebuilt in memory must encode to exactly the stored payloads,
// and the reopened log must answer interval queries exactly as the
// in-memory records do.
func TestSeedWrittenLogOpensBitIdentically(t *testing.T) {
	dir, segments := copySeedlog(t, "seedlog_v1")
	if segments != 4 {
		t.Fatalf("seed log fixture: %d segments", segments)
	}
	var recs []*Record
	last := map[int]uint64{0: 1000, 1: 1000}
	for i := 0; i < 9; i++ {
		rec := buildRecord(t, int64(i+1), 300+200*i)
		rec.Port = i % 2
		rec.PrevFreeze = last[rec.Port]
		last[rec.Port] = rec.FreezeTime
		recs = append(recs, rec)
	}

	st := openTestStore(t, dir, Options{})
	defer st.Close()
	n := 0
	err := st.ReplaySince(0, func(payload []byte, port int, freezeTime, prevFreeze uint64, special bool) error {
		want, err := EncodeRecord(nil, recs[n])
		if err != nil {
			return err
		}
		if !bytes.Equal(payload, want) {
			return fmt.Errorf("record %d: the seed wrote %d bytes, today's encoder writes %d different ones", n, len(payload), len(want))
		}
		if port != recs[n].Port || freezeTime != recs[n].FreezeTime || prevFreeze != recs[n].PrevFreeze || special != recs[n].Special {
			return fmt.Errorf("record %d: indexed as port %d (%d,%d] special=%v", n, port, prevFreeze, freezeTime, special)
		}
		n++
		return nil
	})
	if err != nil || n != len(recs) {
		t.Fatalf("replayed %d of %d records: %v", n, len(recs), err)
	}

	assertLogAnswersLikeRecords(t, st, recs, []int{0, 1}, last, 77)
}

// copySeedlog copies a committed log fixture into a fresh directory (opening
// a store writes to it) and returns it with the number of segments copied.
func copySeedlog(t *testing.T, name string) (dir string, segments int) {
	t.Helper()
	dir = t.TempDir()
	segs, err := filepath.Glob(filepath.Join("testdata", name, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, len(segs)
}

// assertLogAnswersLikeRecords holds an opened log to the records it stores:
// 200 seeded intervals on the given ports (last[port] is the port's final
// freeze), answered by Covering + FoldInterval, must equal the records'
// own cells clamped to their coverage and walked one by one.
func assertLogAnswersLikeRecords(t *testing.T, st *Store, recs []*Record, ports []int, last map[int]uint64, seed int64) {
	t.Helper()
	cfg := recs[0].TW.Config()
	coeff := cfg.Coefficients()
	rng := rand.New(rand.NewSource(seed))
	nonEmpty := 0
	for q := 0; q < 200; q++ {
		port := ports[rng.Intn(len(ports))]
		lo := 900 + uint64(rng.Intn(int(last[port])))
		hi := lo + 1 + uint64(rng.Intn(int(last[port])/2))
		want := timewindow.NewAccumulator(cfg.T, coeff)
		for _, rec := range recs {
			if rec.Port == port {
				rec.TW.AccumulateScanInto(want, max(lo, rec.PrevFreeze), min(hi, rec.FreezeTime))
			}
		}
		cps, err := st.Covering(port, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got := timewindow.NewAccumulator(cfg.T, nil)
		if _, err := timewindow.FoldInterval(got, cfg, cps, lo, hi); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Counts(), want.Counts()) {
			t.Fatalf("port %d [%d,%d): log answers %v, records answer %v", port, lo, hi, got.Counts(), want.Counts())
		}
		if len(want.Counts()) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 50 {
		t.Fatalf("only %d of 200 queries had an answer to compare", nonEmpty)
	}
}

// TestSeedlogV2OpensAndAnswers opens the second committed log generation
// (testdata/seedlog_v2: written by the control plane of the commit that
// trimmed checkpoints to their coverage and top — two ports, periodic and
// data-plane freezes; read-only since monitors are trimmed to their
// staircase). Every stored payload must decode, hold less than the register
// arrays and nothing above a monitor's top, and re-encode to the bytes it
// came from; and the reopened log must answer interval queries exactly as
// the decoded records, walked cell by cell, do.
func TestSeedlogV2OpensAndAnswers(t *testing.T) {
	assertSeedlogOpensAndAnswers(t, "seedlog_v2", 78, func(qm *qmonitor.Snapshot) error {
		if levels, _ := qm.Levels(); len(levels) > 0 && int(levels[len(levels)-1]) > qm.Top() {
			return fmt.Errorf("level %d is occupied above the top %d", levels[len(levels)-1], qm.Top())
		}
		return nil
	})
}

// TestSeedlogV3OpensAndAnswers is TestSeedlogV2OpensAndAnswers for the third
// generation (testdata/seedlog_v3: the same trace through today's control
// plane, which control's TestSeedlogV3WrittenBitIdentically holds to it):
// every monitor holds only its staircase — every kept half raises the
// running maximum of the levels below it, up to the top.
func TestSeedlogV3OpensAndAnswers(t *testing.T) {
	assertSeedlogOpensAndAnswers(t, "seedlog_v3", 79, func(qm *qmonitor.Snapshot) error {
		levels, entries := qm.Levels()
		var run uint64
		for n, level := range levels {
			e := entries[n]
			if int(level) > qm.Top() || (e.Up.Valid && e.Up.Seq <= run) || (e.Down.Valid && e.Down.Seq <= run) {
				return fmt.Errorf("level %d (top %d) keeps %+v, which does not raise the staircase's %d", level, qm.Top(), e, run)
			}
			run = max(run, e.Up.Seq, e.Down.Seq)
		}
		return nil
	})
}

// assertSeedlogOpensAndAnswers opens the committed control-plane log in
// testdata/name: every payload must decode, pass checkMonitor for each of
// its monitors and re-encode to the bytes it came from, the records must
// chain per port and include data-plane and coverage-trimmed ones, and the
// reopened log must answer interval queries as the decoded records do.
func assertSeedlogOpensAndAnswers(t *testing.T, name string, seed int64, checkMonitor func(*qmonitor.Snapshot) error) {
	t.Helper()
	dir, segments := copySeedlog(t, name)
	if segments < 3 {
		t.Fatalf("%s fixture: %d segments", name, segments)
	}
	st := openTestStore(t, dir, Options{})
	defer st.Close()

	var recs []*Record
	specials, trimmed := 0, 0
	last := map[int]uint64{}
	err := st.ReplaySince(0, func(payload []byte, port int, freezeTime, prevFreeze uint64, special bool) error {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		again, err := EncodeRecord(nil, rec)
		if err != nil {
			return err
		}
		if !bytes.Equal(again, payload) {
			return fmt.Errorf("record %d: stored as %d bytes, decodes and re-encodes to %d different ones", len(recs), len(payload), len(again))
		}
		if port != rec.Port || freezeTime != rec.FreezeTime || prevFreeze != rec.PrevFreeze || special != rec.Special {
			return fmt.Errorf("record %d: indexed as port %d (%d,%d] special=%v", len(recs), port, prevFreeze, freezeTime, special)
		}
		if prev, ok := last[port]; ok && prev != prevFreeze {
			return fmt.Errorf("record %d: port %d coverage (%d,%d] does not chain to %d", len(recs), port, prevFreeze, freezeTime, prev)
		}
		last[port] = freezeTime
		if special {
			specials++
		}
		if rec.TW.KeptCells() < rec.TW.Config().EntriesPerSnapshot()/2 {
			trimmed++
		}
		for q, qm := range rec.QM {
			if err := checkMonitor(qm); err != nil {
				return fmt.Errorf("record %d queue %d: %w", len(recs), q, err)
			}
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil || len(recs) < 40 || specials < 3 || trimmed < len(recs)/2 || len(last) != 2 {
		t.Fatalf("%s: replayed %d records (%d special, %d coverage-trimmed, %d ports): %v", name, len(recs), specials, trimmed, len(last), err)
	}

	assertLogAnswersLikeRecords(t, st, recs, []int{0, 2}, last, seed)
}
