package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to the segment decoder via a real
// Open+Replay cycle, checking the two recovery invariants fuzzing can
// reach that the unit tests can't enumerate:
//
//  1. no input panics or loops the decoder — lengths, checksums, and
//     seq fields are all attacker-controlled here;
//  2. whatever replays is a strict prefix of a valid record stream: a
//     segment is either rejected, or every emitted record chains from
//     seq 1 with an intact checksum.
//
// The corpus shape: the fuzz input is interpreted twice — once as raw
// segment bytes (pure garbage path), and once as a mutation recipe
// applied to a well-formed segment (cut at offset, flip a byte), which
// keeps the interesting torn/corrupt states reachable within a small
// byte budget.
func FuzzWALReplay(f *testing.F) {
	// Seed: a valid 3-record segment, plus degenerate inputs.
	valid := buildSegment([][]byte{[]byte("alpha"), nil, bytes.Repeat([]byte{7}, 40)})
	f.Add(valid, uint16(0), uint8(0))
	f.Add(valid, uint16(20), uint8(1))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add(header[:], uint16(0), uint8(0))
	f.Add([]byte("VWALSEG\x01garbage-after-header"), uint16(3), uint8(2))

	f.Fuzz(func(t *testing.T, raw []byte, cut uint16, flip uint8) {
		// Path 1: raw bytes as a whole segment.
		checkSegment(t, raw)

		// Path 2: mutate the valid segment — truncate at cut, then XOR
		// one byte chosen by flip. This is the torn-tail/bitrot space.
		data := append([]byte(nil), valid...)
		if int(cut) < len(data) {
			data = data[:cut]
		}
		if len(data) > 0 {
			data[int(flip)%len(data)] ^= 1 << (flip % 8)
		}
		checkSegment(t, data)
	})
}

// checkSegment writes data as segment 1 of a fresh log dir and runs the
// full Open+Replay recovery on it, asserting the replayed records form
// a checksum-valid, seq-contiguous prefix.
func checkSegment(t *testing.T, data []byte) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		// Rejection is a legal outcome (e.g. a header-valid prefix that
		// recoverTail cannot truncate cleanly); the invariant is no panic.
		return
	}
	defer l.Close()
	var prev uint64
	err = l.Replay(func(r Record) error {
		if r.Seq != prev+1 {
			t.Fatalf("replayed seq %d after %d", r.Seq, prev)
		}
		prev = r.Seq
		return nil
	})
	if err != nil {
		t.Fatalf("replay after successful open: %v", err)
	}
	if got := l.nextSeq; got != prev+1 {
		t.Fatalf("next seq %d after replaying through seq %d", got, prev)
	}
	// The log must be appendable after any recovery.
	if _, err := l.Append(TypeStep, nil); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// buildSegment frames payloads as TypeIngest records from seq 1.
func buildSegment(payloads [][]byte) []byte {
	buf := append([]byte(nil), header[:]...)
	for i, p := range payloads {
		n := bodyMin + len(p)
		rec := make([]byte, 4+n+4)
		binary.LittleEndian.PutUint32(rec, uint32(n))
		rec[4] = byte(TypeIngest)
		binary.LittleEndian.PutUint64(rec[5:], uint64(i+1))
		copy(rec[13:], p)
		binary.LittleEndian.PutUint32(rec[4+n:], crc32.Checksum(rec[4:4+n], castagnoli))
		buf = append(buf, rec...)
	}
	return buf
}
