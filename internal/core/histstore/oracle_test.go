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
	"slices"
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

// encodeRecordTwoPass is the byte oracle, written from the layout in
// codec.go and sharing nothing with EncodeRecord: a map dictionary filled in
// a first walk — every kept cell's flow, window by window in ascending span
// start, then every monitor rise in level order — then a second walk that
// looks every flow up again and emits the streams, the monitors from their
// whole register arrays, a monitor's occupied levels grouped into maximal
// runs of rises before anything is written.
func encodeRecordTwoPass(dst []byte, rec *Record) ([]byte, error) {
	if rec.TW == nil {
		return dst, fmt.Errorf("histstore: record without time-window read")
	}
	f := rec.TW
	anchor, live := f.Anchor(0)
	dst = append(dst, 3)
	var flags byte
	if rec.Special {
		flags |= 1
	}
	if !live {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = appendUvarint(dst, uint64(rec.Port))
	dst = appendUvarint(dst, rec.FreezeTime)
	dst = appendUvarint(dst, rec.FreezeTime-rec.PrevFreeze)

	cfg := f.Config()
	dst = appendUvarint(dst, uint64(cfg.M0))
	dst = appendUvarint(dst, uint64(cfg.K))
	dst = appendUvarint(dst, uint64(cfg.Alpha))
	dst = appendUvarint(dst, uint64(cfg.T))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.MinPktTxDelayNs))
	if live {
		dst = appendUvarint(dst, anchor)
	}

	dict := &flowDict{ids: make(map[flow.Key]uint64, 64)}
	for i := 0; i < cfg.T; i++ {
		for _, c := range resolved(f, i) {
			dict.id(c.flow)
		}
	}
	nIndex := len(dict.flows)
	for _, qm := range rec.QM {
		if qm == nil {
			return dst, fmt.Errorf("histstore: record with nil queue-monitor snapshot")
		}
		for _, e := range qm.Entries() {
			if e.Up.Written() {
				dict.id(e.Up.Flow.Key())
			}
		}
	}
	dst = appendUvarint(dst, uint64(nIndex))
	dst = appendUvarint(dst, uint64(len(dict.flows)-nIndex))
	for _, k := range dict.flows {
		dst = k.AppendBinary(dst)
	}

	for i := 0; i < cfg.T; i++ {
		a, ok := f.Anchor(i)
		if !ok {
			break
		}
		dst = encodeWindowTwoPass(dst, resolved(f, i), a, cfg.M0+cfg.Alpha*uint(i), dict)
	}
	dst = appendUvarint(dst, uint64(len(rec.QM)))
	for _, qm := range rec.QM {
		dst = encodeMonitorTwoPass(dst, qm, dict)
	}
	return dst, nil
}

func encodeWindowTwoPass(dst []byte, cells []resolvedRef, anchor uint64, shift uint, dict *flowDict) []byte {
	dst = appendUvarint(dst, uint64(len(cells)))
	if len(cells) == 0 {
		return dst
	}
	tts := make([]uint64, len(cells))
	for n, c := range cells {
		tts[n] = c.start >> shift
	}
	dst = appendUvarint(dst, anchor-tts[0])
	for n := 0; n < len(cells); {
		end := n + 1
		for end < len(cells) && tts[end] == tts[end-1]+1 {
			end++
		}
		if n > 0 {
			dst = appendUvarint(dst, tts[n]-tts[n-1]-1)
		}
		dst = appendUvarint(dst, uint64(end-n))
		for _, c := range cells[n:end] {
			dst = appendUvarint(dst, dict.id(c.flow))
		}
		n = end
	}
	return dst
}

// occupiedLevel is a level of a monitor's register array that holds a
// record.
type occupiedLevel struct {
	level int
	e     qmonitor.Entry
}

// occupied lists the occupied levels of qm's whole register array.
func occupied(qm *qmonitor.Snapshot) []occupiedLevel {
	var occ []occupiedLevel
	for level, e := range qm.Entries() {
		if e != (qmonitor.Entry{}) {
			occ = append(occ, occupiedLevel{level, e})
		}
	}
	return occ
}

// runGroups splits occupied levels into the groups the layout writes, each
// as [first, end) indices into occ: a level joins the one below it if both
// are a rise with no fall, they are adjacent, and its rise is one sequence
// number above the one below. A group of two or more is a run.
func runGroups(occ []occupiedLevel) [][2]int {
	runOnly := func(e qmonitor.Entry) bool { return e.Up.Written() && e.Down == 0 }
	var groups [][2]int
	for n := range occ {
		if n > 0 && runOnly(occ[n-1].e) && runOnly(occ[n].e) &&
			occ[n].level == occ[n-1].level+1 && occ[n].e.Up.Seq == occ[n-1].e.Up.Seq+1 {
			groups[len(groups)-1][1] = n + 1
			continue
		}
		groups = append(groups, [2]int{n, n + 1})
	}
	return groups
}

func encodeMonitorTwoPass(dst []byte, qm *qmonitor.Snapshot, dict *flowDict) []byte {
	cfg := qm.Config()
	dst = appendUvarint(dst, uint64(cfg.MaxDepthCells))
	dst = appendUvarint(dst, uint64(cfg.GranuleCells))
	dst = appendUvarint(dst, uint64(qm.Top()))
	occ := occupied(qm)
	dst = appendUvarint(dst, uint64(len(occ)))
	var predSeq uint64
	below := -1 // the level of the previous group's last level
	for _, g := range runGroups(occ) {
		first := occ[g[0]]
		skip := uint64(first.level - below - 1)
		below = occ[g[1]-1].level
		if run := occ[g[0]:g[1]]; len(run) >= 2 {
			dst = appendUvarint(dst, skip<<2)
			dst = appendUvarint(dst, uint64(len(run)-2))
			dst = appendZigzag(dst, int64(first.e.Up.Seq)-int64(predSeq))
			for _, o := range run {
				dst = appendUvarint(dst, dict.id(o.e.Up.Flow.Key()))
			}
			predSeq = run[len(run)-1].e.Up.Seq
			continue
		}
		e := first.e
		halves := uint64(0)
		if e.Up.Written() {
			halves |= 1
		}
		if e.Down != 0 {
			halves |= 2
		}
		dst = appendUvarint(dst, skip<<2|halves)
		if e.Up.Written() {
			dst = appendUvarint(dst, dict.id(e.Up.Flow.Key()))
			dst = appendZigzag(dst, int64(e.Up.Seq)-int64(predSeq))
			predSeq = e.Up.Seq
		}
		if e.Down != 0 {
			dst = appendZigzag(dst, int64(e.Down)-int64(predSeq))
			predSeq = e.Down
		}
	}
	return dst
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
	freezeFallOnly        // freezeToTop over a queue that jumps: staircase levels holding a fall and no rise
	freezeRamp            // freezeToTop over a queue that builds one granule per packet in ramps: runs of rises
)

// seededRecords drives live register structures with seeded traces shaped
// like the paper's workloads: UW-like (thousands of flows, so the dictionary
// and the interner's growth matter), WS-like (a handful of flows in long
// runs, the last-key shortcut), untouched registers, a data-plane (Special)
// checkpoint, a multi-queue port, and the five shapes a trimmed freeze adds.
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
			switch {
			case freeze == freezeRamp && i%200 == 180:
				depth = rng.Intn(qmc.MaxDepthCells / 2)
			case freeze == freezeRamp && i%200 > 180:
				depth += qmc.GranuleCells
			default:
				depth += rng.Intn(17) - 8
			}
			if freeze == freezeFallOnly && i%5 == 0 {
				depth = rng.Intn(qmc.MaxDepthCells)
			}
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
			var pos []int
			a, _ := rec.TW.Anchor(0)
			for _, ref := range rec.TW.Window(0) {
				pos = append(pos, int(twc.Base(a)+uint64(ref.Pos))%twc.Cells())
			}
			if len(pos) < 4 || slices.Min(pos) > twc.Cells()/4 || slices.Max(pos) < twc.Cells()*7/8 {
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
		gaps, fallOnly, runs := 0, 0, 0
		for _, qm := range qms {
			if freeze == freezeWhole {
				rec.QM = append(rec.QM, qm.Snapshot())
				continue
			}
			rec.QM = append(rec.QM, qm.Freeze())
			gaps += staircaseGaps(qm.Snapshot(), rec.QM[len(rec.QM)-1])
			_, entries := rec.QM[len(rec.QM)-1].Levels()
			for _, e := range entries {
				if !e.Up.Written() {
					fallOnly++
				}
			}
			runs += riseRuns(rec.QM[len(rec.QM)-1])
		}
		if freeze == freezeToTop && gaps == 0 {
			tb.Fatalf("monitors frozen to their staircase leave no gap below a top")
		}
		if freeze == freezeFallOnly && fallOnly < 2 {
			tb.Fatalf("a jumping queue's staircase keeps %d levels with a fall alone", fallOnly)
		}
		if freeze == freezeRamp && runs == 0 {
			tb.Fatalf("a queue built one granule per packet leaves no run of rises in its staircase")
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
		{"fall_only", build(11, 40, 2, n/4, 1, false, freezeFallOnly)},
		{"monitor_rise_run", build(12, 300, 1, n, 1, false, freezeRamp)},
	}
}

// riseRuns counts the runs a version-3 record writes of a monitor.
func riseRuns(qm *qmonitor.Snapshot) int {
	runs := 0
	for _, g := range runGroups(occupied(qm)) {
		if g[1]-g[0] >= 2 {
			runs++
		}
	}
	return runs
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
// writes exactly the bytes the layout prescribes, as the two-pass oracle
// writes them, and a decoded record is the record encoded and re-encodes to
// the bytes it came from.
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
			if !reflect.DeepEqual(dec, sr.rec) {
				t.Fatalf("%s (paper=%v): the decoded record is not the encoded one", sr.name, paper)
			}
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
	tw, err := timewindow.NewFiltered(cfg, 0, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeRecord(nil, &Record{TW: tw}); err == nil {
		t.Fatalf("encoded a record of %d cells, limit %d", cfg.EntriesPerSnapshot(), maxRegisterEntries)
	}
}

// TestSeedWrittenLogOpensBitIdentically opens a log written by the code
// before the one-pass encoder (testdata/seedlog_v1: nine version-1 records
// in four sealed segments, two ports, each port's coverage chained; written
// by the seed commit's Store from buildRecord(seed i+1, 300+200i packets),
// whole registers, stale cells included). Every stored payload must decode
// through the v1 path to exactly the record rebuilt in memory today — the
// index Algorithm 3 leaves of the whole registers, the monitors' sequence
// numbers — and the reopened log must answer interval queries exactly as the
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
		if payload[0] != 1 {
			return fmt.Errorf("record %d: version %d", n, payload[0])
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, recs[n]) {
			return fmt.Errorf("record %d: the seed's payload decodes to another record than today's registers freeze", n)
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
// freeze), answered by Covering + FoldInterval, must equal the fold of the
// records themselves, each clamped to its coverage.
func assertLogAnswersLikeRecords(t *testing.T, st *Store, recs []*Record, ports []int, last map[int]uint64, seed int64) {
	t.Helper()
	cfg := recs[0].TW.Config()
	rng := rand.New(rand.NewSource(seed))
	nonEmpty := 0
	for q := 0; q < 200; q++ {
		port := ports[rng.Intn(len(ports))]
		lo := 900 + uint64(rng.Intn(int(last[port])))
		hi := lo + 1 + uint64(rng.Intn(int(last[port])/2))
		var run []recordCovered
		for _, rec := range recs {
			if rec.Port == port {
				run = append(run, recordCovered{rec})
			}
		}
		want := timewindow.NewAccumulator(cfg.T, nil)
		if _, err := timewindow.FoldInterval(want, cfg, run, lo, hi); err != nil {
			t.Fatal(err)
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

// recordCovered is a decoded record as the interval fold reads it.
type recordCovered struct{ *Record }

func (r recordCovered) Coverage() (prevFreeze, freezeTime uint64) {
	return r.PrevFreeze, r.FreezeTime
}

func (r recordCovered) Filtered() *timewindow.Filtered { return r.TW }

// TestSeedlogV2OpensAndAnswers opens the second committed log generation
// (testdata/seedlog_v2: version-1 records written by the control plane of the
// commit that trimmed checkpoints to their coverage and top — two ports,
// periodic and data-plane freezes; read-only since). Every stored payload
// must decode, hold less than the register arrays and nothing above a
// monitor's top, and re-encode to a record that decodes to the same one; and
// the reopened log must answer interval queries exactly as the decoded
// records do.
func TestSeedlogV2OpensAndAnswers(t *testing.T) {
	assertSeedlogOpensAndAnswers(t, "seedlog_v2", 1, 78, func(qm *qmonitor.Snapshot) error {
		if levels, _ := qm.Levels(); len(levels) > 0 && int(levels[len(levels)-1]) > qm.Top() {
			return fmt.Errorf("level %d is occupied above the top %d", levels[len(levels)-1], qm.Top())
		}
		return nil
	})
}

// TestSeedlogV3OpensAndAnswers is TestSeedlogV2OpensAndAnswers for the third
// generation (testdata/seedlog_v3: version-1 records of the same trace
// through the control plane that trimmed monitors to their staircase;
// read-only since): every monitor holds only its staircase.
func TestSeedlogV3OpensAndAnswers(t *testing.T) {
	assertSeedlogOpensAndAnswers(t, "seedlog_v3", 1, 79, staircaseOnly)
}

// TestSeedlogV4OpensAndAnswers is the same for the fourth generation
// (testdata/seedlog_v4: version-2 records of the same trace through the
// control plane that made a checkpoint its Algorithm-3 index; read-only
// since).
func TestSeedlogV4OpensAndAnswers(t *testing.T) {
	assertSeedlogOpensAndAnswers(t, "seedlog_v4", 2, 80, staircaseOnly)
}

// TestSeedlogV5OpensAndAnswers is the same for the fifth generation
// (testdata/seedlog_v5: version-3 records of the same trace with a building
// queue appended on every port and queue, through today's control plane,
// which control's TestSeedlogV5WrittenBitIdentically holds to it), whose
// payloads re-encode to their own bytes and whose monitors hold runs of
// rises.
func TestSeedlogV5OpensAndAnswers(t *testing.T) {
	runs := 0
	assertSeedlogOpensAndAnswers(t, "seedlog_v5", 3, 81, func(qm *qmonitor.Snapshot) error {
		runs += riseRuns(qm)
		return staircaseOnly(qm)
	})
	if runs == 0 {
		t.Fatal("seedlog_v5 decodes to no run of rises")
	}
	t.Logf("%d runs of rises", runs)
}

// staircaseOnly checks that a monitor keeps only its staircase: every kept
// half raises the running maximum of the levels below it, up to the top.
func staircaseOnly(qm *qmonitor.Snapshot) error {
	levels, entries := qm.Levels()
	var run uint64
	for n, level := range levels {
		e := entries[n]
		if int(level) > qm.Top() || (e.Up.Written() && e.Up.Seq <= run) || (e.Down != 0 && e.Down <= run) {
			return fmt.Errorf("level %d (top %d) keeps %+v, which does not raise the staircase's %d", level, qm.Top(), e, run)
		}
		run = max(run, e.Up.Seq, e.Down)
	}
	return nil
}

// assertSeedlogOpensAndAnswers opens the committed control-plane log in
// testdata/name, whose records are all of the given version: every payload
// must decode, pass checkMonitor for each of its monitors and re-encode to a
// payload that decodes to the same record — to the bytes it came from, if
// it is of today's version — the records must chain per port and include
// data-plane and coverage-trimmed ones, and the reopened log must answer
// interval queries as the decoded records do.
func assertSeedlogOpensAndAnswers(t *testing.T, name string, version byte, seed int64, checkMonitor func(*qmonitor.Snapshot) error) {
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
		if payload[0] != version {
			return fmt.Errorf("record %d: version %d, the fixture's is %d", len(recs), payload[0], version)
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		again, err := EncodeRecord(nil, rec)
		if err != nil {
			return err
		}
		if version == codecVersion && !bytes.Equal(again, payload) {
			return fmt.Errorf("record %d: stored as %d bytes, decodes and re-encodes to %d different ones", len(recs), len(payload), len(again))
		}
		if dec, err := DecodeRecord(again); err != nil || !reflect.DeepEqual(dec, rec) {
			return fmt.Errorf("record %d: re-encoded as version %d, decodes to another record (%v)", len(recs), codecVersion, err)
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
