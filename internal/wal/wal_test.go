package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vnfopt/internal/failfs"
	"vnfopt/internal/obs"
)

func openTemp(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func replayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(r Record) error {
		out = append(out, Record{Type: r.Type, Seq: r.Seq, Payload: append([]byte(nil), r.Payload...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAppendReplayRoundTrip: records come back in order, bitwise, with
// contiguous seqs, across a close/reopen boundary.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Type: TypeCreate, Payload: []byte(`{"id":"s1"}`)},
		{Type: TypeIngest, Payload: []byte{1, 2, 3, 4, 5}},
		{Type: TypeStep, Payload: nil},
		{Type: TypeFaults, Payload: []byte(`{"inject":[]}`)},
	}
	for i := range want {
		seq, err := l.Append(want[i].Type, want[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
		want[i].Seq = seq
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].Seq != want[i].Seq || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Appends continue the seq chain after reopen.
	seq, err := l2.Append(TypeStep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(want)+1) {
		t.Fatalf("post-reopen seq %d, want %d", seq, len(want)+1)
	}
}

// TestSegmentRotationAndCompaction: a small segment size forces
// rotation; a checkpoint lands as the first record of a fresh segment
// and deletes every segment before it, and later appends chain on.
func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0xAB}, 64)
	var lastSeq uint64
	for i := 0; i < 40; i++ {
		if lastSeq, err = l.Append(TypeIngest, payload); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.segs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(l.segs))
	}

	if err := l.Checkpoint(TypeCreate, []byte("whole state")); err != nil {
		t.Fatal(err)
	}
	if len(l.segs) != 1 {
		t.Fatalf("checkpoint left %d segments, want 1", len(l.segs))
	}
	if _, err := os.Stat(filepath.Join(dir, segName(lastSeq+1))); err != nil {
		t.Fatalf("checkpoint did not start a segment of its own: %v", err)
	}
	if _, err := l.Append(TypeStep, nil); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 2 || got[0].Type != TypeCreate || got[0].Seq != lastSeq+1 || string(got[0].Payload) != "whole state" || got[1].Seq != lastSeq+2 {
		t.Fatalf("replay after checkpoint: %+v, want the checkpoint at seq %d and one step", got, lastSeq+1)
	}
	// A checkpoint right behind a checkpoint still gets a fresh segment.
	if err := l.Checkpoint(TypeCreate, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 1 || string(got[0].Payload) != "again" {
		t.Fatalf("replay after second checkpoint: %+v", got)
	}
	// A record too large to decode is refused before anything is written
	// or removed, and the log stays usable.
	if err := l.Checkpoint(TypeCreate, make([]byte, maxBody)); err == nil {
		t.Fatal("oversized checkpoint accepted")
	}
	if _, err := l.Append(TypeStep, nil); err != nil {
		t.Fatalf("append after a refused oversized record: %v", err)
	}
	if got := replayAll(t, l); len(got) != 2 || string(got[0].Payload) != "again" {
		t.Fatalf("replay after the refused record: %+v", got)
	}
}

// TestReopenAfterCompaction: a compacted log no longer starts at seq 1;
// reopening must accept a chain that begins at the checkpoint's segment
// and keep appending from the true tail — and a checkpoint is fsynced
// whatever the sync policy.
func TestReopenAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics(obs.NewRegistry())
	l, err := Open(dir, Options{SegmentBytes: 256, Policy: SyncOS, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xCD}, 64)
	var last uint64
	for i := 0; i < 30; i++ {
		if last, err = l.Append(TypeIngest, payload); err != nil {
			t.Fatal(err)
		}
	}
	syncs := m.syncs.Value()
	if err := l.Checkpoint(TypeCreate, payload); err != nil {
		t.Fatal(err)
	}
	if m.syncs.Value() == syncs {
		t.Fatal("checkpoint under the os policy was not fsynced")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); len(got) != 1 || got[0].Seq != last+1 {
		t.Fatalf("replay after reopen: %+v, want only the checkpoint at seq %d", got, last+1)
	}
	if seq, err := l2.Append(TypeStep, nil); err != nil || seq != last+2 {
		t.Fatalf("append after reopen: seq %d err %v, want %d", seq, err, last+2)
	}
}

// TestCheckpointCrashEveryPoint kills the filesystem at every I/O
// boundary of a checkpoint over a multi-segment log, in both flavours,
// and reopens what is left: the chain is contiguous, it still holds a
// create record, and everything the dead process had appended is either
// in front of the checkpoint or superseded by it.
func TestCheckpointCrashEveryPoint(t *testing.T) {
	build := func(fs failfs.FS) (string, *Log, uint64) {
		dir := t.TempDir()
		l, err := Open(dir, Options{FS: fs, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		last, err := l.Append(TypeCreate, []byte("v0"))
		for i := 0; i < 12 && err == nil; i++ {
			last, err = l.Append(TypeIngest, bytes.Repeat([]byte{byte(i)}, 32))
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(l.segs) < 3 {
			t.Fatalf("expected rotation, got %d segments", len(l.segs))
		}
		return dir, l, last
	}
	probe := failfs.NewFaulty(failfs.OS)
	_, l, _ := build(probe)
	probe.CrashAt(0, false)
	if err := l.Checkpoint(TypeCreate, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	total := probe.Ops()
	if total < 7 { // create, header, fsync, dir sync, record, fsync, ≥ 2 removes, dir sync
		t.Fatalf("suspiciously few I/O boundaries in a checkpoint: %d", total)
	}
	for _, torn := range []bool{false, true} {
		for k := 1; k <= total; k++ {
			ffs := failfs.NewFaulty(failfs.OS)
			dir, l, last := build(ffs)
			ffs.CrashAt(k, torn)
			if err := l.Checkpoint(TypeCreate, []byte("v1")); err == nil {
				t.Fatalf("torn=%v k=%d: checkpoint through a crashed fs succeeded", torn, k)
			}
			l.Close()

			l2, err := Open(dir, Options{SegmentBytes: 128})
			if err != nil {
				t.Fatalf("torn=%v k=%d: reopen: %v", torn, k, err)
			}
			got := replayAll(t, l2)
			l2.Close()
			lastCreate := -1
			for i, r := range got {
				if i > 0 && r.Seq != got[i-1].Seq+1 {
					t.Fatalf("torn=%v k=%d: seq gap %d -> %d", torn, k, got[i-1].Seq, r.Seq)
				}
				if r.Type == TypeCreate {
					lastCreate = i
				}
			}
			if lastCreate < 0 {
				t.Fatalf("torn=%v k=%d: no create record survived: %+v", torn, k, got)
			}
			// Either the checkpoint is the tail, or it never landed and the
			// original chain is whole.
			tail := got[len(got)-1]
			if string(got[lastCreate].Payload) == "v1" {
				if lastCreate != len(got)-1 || tail.Seq != last+1 {
					t.Fatalf("torn=%v k=%d: checkpoint at index %d of %d, seq %d", torn, k, lastCreate, len(got), tail.Seq)
				}
			} else if got[0].Seq != 1 || tail.Seq != last {
				t.Fatalf("torn=%v k=%d: checkpoint lost and the old chain is %d..%d, want 1..%d", torn, k, got[0].Seq, tail.Seq, last)
			}
		}
	}
}

// TestTornTailTruncated: cutting the final record at every possible
// byte boundary still recovers — the valid prefix replays, the torn
// tail is dropped, and the next append reuses its seq.
func TestTornTailTruncated(t *testing.T) {
	build := func(t *testing.T) (string, int) {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := l.Append(TypeIngest, []byte{byte(i), 0xFF, byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return dir, len(data)
	}

	dir, full := build(t)
	recLen := (full - headerSize) / 3
	for cut := full - recLen + 1; cut < full; cut++ {
		dir, _ := build(t)
		path := filepath.Join(dir, segName(1))
		if err := os.Truncate(path, int64(cut)); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		got := replayAll(t, l)
		if len(got) != 2 {
			t.Fatalf("cut=%d: replayed %d records, want 2", cut, len(got))
		}
		if l.truncated != 1 {
			t.Fatalf("cut=%d: truncated %d tails, want 1", cut, l.truncated)
		}
		if seq, err := l.Append(TypeStep, nil); err != nil || seq != 3 {
			t.Fatalf("cut=%d: append after truncation: seq %d err %v", cut, seq, err)
		}
		l.Close()
	}
	_ = dir
}

// TestCorruptTailTruncated: flipping a byte inside the final record's
// body (checksum break rather than a short frame) is also recovered by
// truncation.
func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(TypeIngest, bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0x40 // inside the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
}

// TestMidChainCorruptionRejected: damage before the tail cannot be a
// torn write; Open must refuse rather than silently drop acknowledged
// records that follow.
func TestMidChainCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(TypeIngest, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Corrupt the first (non-final) segment.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on mid-chain corruption: %v, want ErrCorrupt", err)
	}
}

// TestSyncPolicies: always fsyncs per append, interval group-commits,
// os never syncs on append; all sync on close.
func TestSyncPolicies(t *testing.T) {
	reg := obs.NewRegistry()
	count := func(policy SyncPolicy, every time.Duration, appends int) int64 {
		m := NewMetrics(reg)
		l := openTemp(t, Options{Policy: policy, SyncEvery: every, Metrics: m})
		before := m.syncs.Value()
		for i := 0; i < appends; i++ {
			if _, err := l.Append(TypeStep, nil); err != nil {
				t.Fatal(err)
			}
		}
		return m.syncs.Value() - before
	}
	if got := count(SyncAlways, 0, 10); got < 10 {
		t.Fatalf("always policy synced %d times for 10 appends", got)
	}
	if got := count(SyncInterval, time.Hour, 10); got > 1 {
		t.Fatalf("interval(1h) policy synced %d times for 10 appends, want <= 1", got)
	}
	if got := count(SyncOS, 0, 10); got > 1 {
		t.Fatalf("os policy synced %d times on append path, want <= 1 (segment create)", got)
	}
}

// TestAppendFailurePoisonsLog: a crashed write leaves the log refusing
// further appends (the tail is suspect) until reopened, and the reopen
// recovers the acknowledged prefix.
func TestAppendFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	ffs := failfs.NewFaulty(failfs.OS)
	l, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(TypeIngest, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	ffs.CrashAt(1, true) // next write tears
	if _, err := l.Append(TypeIngest, []byte("doomed-record-payload")); err == nil {
		t.Fatal("append through crashed fs succeeded")
	}
	if _, err := l.Append(TypeStep, nil); err == nil {
		t.Fatal("append on poisoned log succeeded")
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 1 || string(got[0].Payload) != "ok" {
		t.Fatalf("recovered %d records (%q), want the acknowledged prefix only", len(got), got)
	}
}

// TestConcurrentAppendCheckpoint exercises the append path racing
// Checkpoint under -race (the daemon runs both on one actor; the log
// does not rely on that).
func TestConcurrentAppendCheckpoint(t *testing.T) {
	l := openTemp(t, Options{SegmentBytes: 512})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := l.Append(TypeIngest, bytes.Repeat([]byte{1}, 32)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 20; i++ {
		if err := l.Checkpoint(TypeCreate, []byte("state")); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The chain must still be contiguous end-to-end.
	var prev uint64
	if err := l.Replay(func(r Record) error {
		if prev != 0 && r.Seq != prev+1 {
			return fmt.Errorf("seq gap %d -> %d", prev, r.Seq)
		}
		prev = r.Seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayCallbackErrorPropagates: the callback's own error comes
// back unchanged (recovery cancellation relies on this).
func TestReplayCallbackErrorPropagates(t *testing.T) {
	l := openTemp(t, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(TypeStep, nil); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := errors.New("stop here")
	n := 0
	err := l.Replay(func(Record) error {
		n++
		if n == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("replay error %v, want sentinel", err)
	}
	if n != 2 {
		t.Fatalf("callback ran %d times, want 2", n)
	}
}
