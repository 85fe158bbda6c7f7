package histstore

import (
	"os"
	"slices"
	"testing"
	"time"
)

// followed is one record as a follower saw it.
type followed struct {
	port   int
	freeze uint64
	logged bool
}

// logOrder is every record the store holds, in append order.
func logOrder(t *testing.T, st *Store) []followed {
	t.Helper()
	var out []followed
	if err := st.ReplaySince(0, func(_ []byte, port int, freeze, _ uint64, _ bool) error {
		out = append(out, followed{port: port, freeze: freeze})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFollowDeliversEveryAppendOnce follows a log across dozens of
// rotations while two appenders write to it and the follower now and then
// blocks: it gets the records past since that were logged when it started,
// flagged logged, then every later append, unflagged, each once, in the
// log's order.
func TestFollowDeliversEveryAppendOnce(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{SegmentBytes: 4 << 10})
	defer st.Close()
	since := appendChain(t, st, 0, 3, 1000)
	end0 := appendChain(t, st, 0, 7, since)

	// Two ports, one appender each: records built here, appended there.
	const perPort = 150
	var recs [2][]*Record
	prev := [2]uint64{end0, 0}
	for i := 0; i < perPort; i++ {
		for p := range recs {
			recs[p] = append(recs[p], smallRecord(t, p, prev[p], prev[p]+100))
			prev[p] += 100
		}
	}
	total := 7 + 2*perPort
	started := make(chan struct{})
	appendErrs := make(chan error, 2)
	for p := range recs {
		go func(recs []*Record) {
			<-started
			for i, rec := range recs {
				if i%40 == 0 {
					time.Sleep(time.Millisecond)
				}
				if err := st.Append(rec); err != nil {
					appendErrs <- err
					return
				}
			}
			appendErrs <- nil
		}(recs[p])
	}

	stop := make(chan struct{})
	var got []followed
	done := make(chan error, 1)
	go func() {
		done <- st.Follow(since, stop, func(_ []byte, port int, freeze, _ uint64, _, logged bool) error {
			if len(got) == 0 {
				close(started)
			}
			if len(got)%50 == 25 {
				time.Sleep(5 * time.Millisecond) // the appenders run on
			}
			got = append(got, followed{port: port, freeze: freeze, logged: logged})
			if len(got) == total {
				close(stop)
			}
			return nil
		})
	}()
	for range recs {
		if err := <-appendErrs; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("a stopped Follow returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the follower did not reach the end of the log")
	}
	if segs := st.Stats().Segments; segs < 20 {
		t.Fatalf("the appends filled %d segments, want rotations", segs)
	}

	want := logOrder(t, st)[3:]
	for i := range want {
		want[i].logged = i < 7
	}
	if !slices.Equal(got, want) {
		t.Fatalf("followed %d records, want the %d past since in log order:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
}

// TestFollowSkipsPruned: records whose segment retention removes before the
// follower reads them are skipped, also when the segment the follower
// stood in is the one removed; nothing is delivered twice, and every record
// the log still holds is delivered.
func TestFollowSkipsPruned(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{SegmentBytes: 4 << 10, MaxBytes: 16 << 10})
	defer st.Close()
	end := appendChain(t, st, 0, 20, 1000)
	st.mu.Lock()
	firstActive := st.activeSeg.seq
	st.mu.Unlock()

	stop := make(chan struct{})
	var got []uint64
	appended := 20
	err := st.Follow(0, stop, func(_ []byte, _ int, freeze, _ uint64, _, _ bool) error {
		if len(got) == 0 {
			// Blocked on its first record, the follower falls behind
			// retention: every segment it located, and the one it stands
			// in, is removed.
			for {
				st.mu.Lock()
				gone := len(st.sealed) > 0 && st.sealed[0].seq > firstActive
				st.mu.Unlock()
				if gone {
					break
				}
				end = appendChain(t, st, 0, 1, end)
				appended++
			}
		}
		if n := len(got); n > 0 && freeze <= got[n-1] {
			t.Fatalf("freeze %d delivered after %d", freeze, got[n-1])
		}
		got = append(got, freeze)
		if freeze == end {
			close(stop)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("a stopped Follow returned %v, want nil", err)
	}
	if len(got) >= appended {
		t.Fatalf("followed %d of %d records, want the pruned ones skipped", len(got), appended)
	}
	for _, r := range logOrder(t, st) {
		if _, ok := slices.BinarySearch(got, r.freeze); !ok {
			t.Fatalf("record frozen at %d is in the log but was not followed", r.freeze)
		}
	}
}

// TestFollowEnds: a follower waiting for appends returns nil when stop
// closes and an error when the store closes; one started on a closed store
// returns at once.
func TestFollowEnds(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{})
	appendChain(t, st, 0, 2, 1000)
	follow := func(stop chan struct{}) chan error {
		done := make(chan error, 1)
		go func() {
			done <- st.Follow(0, stop, func([]byte, int, uint64, uint64, bool, bool) error { return nil })
		}()
		return done
	}
	wait := func(done chan error) error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("Follow did not return")
			return nil
		}
	}

	stop := make(chan struct{})
	done := follow(stop)
	time.Sleep(10 * time.Millisecond)
	close(stop)
	if err := wait(done); err != nil {
		t.Fatalf("stop: Follow returned %v, want nil", err)
	}

	done = follow(make(chan struct{}))
	time.Sleep(10 * time.Millisecond)
	st.Close()
	if err := wait(done); err == nil {
		t.Fatal("Close: Follow returned nil, want an error")
	}
	if err := wait(follow(make(chan struct{}))); err == nil {
		t.Fatal("a Follow of a closed store returned nil, want an error")
	}
}

// flipByte inverts one byte of a file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// followAll follows st from 0 until it has delivered the record frozen at
// last, and returns the freeze times it delivered.
func followAll(t *testing.T, st *Store, last uint64) []uint64 {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan error, 1)
	var got []uint64
	go func() {
		done <- st.Follow(0, stop, func(_ []byte, _ int, freeze, _ uint64, _, _ bool) error {
			got = append(got, freeze)
			if freeze == last {
				close(stop)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Follow returned %v, want it to read past the bad data", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Follow did not reach the end of the log")
	}
	return got
}

// TestFollowSkipsUnreadable: a record that fails its checksum, and a sealed
// segment whose index does not load, are counted and passed over, and the
// follower gets every record after them. A follower that stopped there
// instead would redial to the same bad record for ever.
func TestFollowSkipsUnreadable(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{SegmentBytes: 4 << 10})
	last := appendChain(t, st, 0, 30, 1000)
	var all []uint64
	for _, r := range logOrder(t, st) {
		all = append(all, r.freeze)
	}

	// One payload byte of the second record of the second segment.
	st.mu.Lock()
	if len(st.sealed) < 3 {
		st.mu.Unlock()
		t.Fatalf("%d sealed segments, want at least 3", len(st.sealed))
	}
	seg := st.sealed[1]
	e := seg.index[1]
	bad := st.sealed[0].count + 1
	st.mu.Unlock()
	flipByte(t, seg.path, e.offset+int64(uvarintLen(uint64(e.payloadLen)))+2)
	if err := st.ReplaySince(0, func([]byte, int, uint64, uint64, bool) error { return nil }); err == nil {
		t.Fatal("ReplaySince read past a record that fails its checksum")
	}
	want := append(slices.Clone(all[:bad]), all[bad+1:]...)
	if got := followAll(t, st, last); !slices.Equal(got, want) {
		t.Fatalf("followed %v\nwant %v", got, want)
	}
	if n := st.decodeErrs.Load(); n != 1 {
		t.Fatalf("decode errors = %d, want the bad record counted once", n)
	}
	st.Close()

	// A reopened store loads sealed indexes on first touch: break the
	// oldest segment's footer before the follower touches it.
	st = openTestStore(t, dir, Options{SegmentBytes: 4 << 10})
	defer st.Close()
	st.mu.Lock()
	seg = st.sealed[0]
	st.mu.Unlock()
	flipByte(t, seg.path, seg.recordEnd)
	if got := followAll(t, st, last); !slices.Equal(got, want[seg.count:]) {
		t.Fatalf("followed %v\nwant %v", got, want[seg.count:])
	}
	if n := st.decodeErrs.Load(); n != 2 {
		t.Fatalf("decode errors = %d, want the segment and the bad record counted", n)
	}
}
