// Package wal is a per-scenario write-ahead log: a scenario's log
// directory is its whole durable state. Each scenario shard appends one
// record per mutating command — create, ingest batch, step, fault
// transition — *before* the command is applied and acknowledged, so
// recovery is replay: rebuild the scenario from the log's latest create
// record, then re-execute the records after it through the real
// (deterministic) engine, landing on the exact pre-crash decision state.
//
// On-disk layout: one directory per scenario holding numbered segment
// files (<firstSeq>.wal). A segment starts with an 8-byte magic+version
// header followed by records:
//
//	length  uint32 LE   // len(body) = 1 + 8 + len(payload)
//	body    = type uint8, seq uint64 LE, payload
//	crc     uint32 LE   // CRC32-C over body
//
// Sequence numbers are per-scenario, contiguous from 1; a decoder
// verifies both the checksum and the seq chain, so any torn or
// corrupted record is detected. A partially-written final record (the
// torn tail a crash leaves behind) is truncated on open instead of
// failing recovery — by the append-before-ack discipline that record
// was never acknowledged. Corruption in the *middle* of the chain
// (which append-only writing cannot produce) is reported as an error.
//
// Segments rotate at Options.SegmentBytes. Compaction is a checkpoint:
// Checkpoint appends a record that by itself rebuilds the owner's state
// (the daemon's create-with-state) as the first record of a fresh
// segment, fsyncs it, and deletes every older segment — the log stays
// proportional to the traffic since the last checkpoint.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vnfopt/internal/failfs"
)

// Type discriminates WAL records. The daemon owns the payload encodings;
// the log only frames, checksums, and sequences them.
type Type uint8

const (
	// TypeCreate carries the scenario spec (JSON) that created the shard.
	TypeCreate Type = 1
	// TypeIngest carries one accepted rate-update batch (binary; see the
	// daemon's codec).
	TypeIngest Type = 2
	// TypeStep marks one epoch close (empty payload).
	TypeStep Type = 3
	// TypeFaults carries one fault transition (JSON inject/heal sets).
	TypeFaults Type = 4
	// TypeAnchor is no longer written: logs compacted by an older build
	// carry it (a snapshot-file marker), and replay skips it.
	TypeAnchor Type = 5
)

func (t Type) String() string {
	switch t {
	case TypeCreate:
		return "create"
	case TypeIngest:
		return "ingest"
	case TypeStep:
		return "step"
	case TypeFaults:
		return "faults"
	case TypeAnchor:
		return "anchor"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is one framed log entry.
type Record struct {
	Type    Type
	Seq     uint64
	Payload []byte
}

// SyncPolicy picks when appended records reach stable storage.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every append: an acknowledged command is
	// durable against power loss. The default.
	SyncAlways SyncPolicy = "always"
	// SyncInterval fsyncs at most once per Options.SyncEvery, piggybacked
	// on appends (group commit): a crash loses at most the un-synced
	// window of *acknowledged* commands to power loss — but nothing to a
	// mere process kill, since the bytes are already in the page cache.
	SyncInterval SyncPolicy = "interval"
	// SyncOS never fsyncs on append (rotation and close still sync):
	// durability is whatever the OS flush policy provides.
	SyncOS SyncPolicy = "os"
)

// ParseSyncPolicy validates a policy string (flag value).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncInterval, SyncOS:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: unknown sync policy %q (want always, interval, or os)", s)
}

// Options configure one scenario log.
type Options struct {
	// FS is the filesystem seam (nil = failfs.OS).
	FS failfs.FS
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 4 MiB).
	SegmentBytes int64
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// SyncEvery is the group-commit window for SyncInterval (default 50ms).
	SyncEvery time.Duration
	// Metrics receives append/replay/compaction accounting (nil = none).
	Metrics *Metrics
}

func (o *Options) setDefaults() {
	if o.FS == nil {
		o.FS = failfs.OS
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Policy == "" {
		o.Policy = SyncAlways
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
}

var (
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrCorrupt reports corruption that torn-tail truncation cannot
	// explain: a bad record with valid records after it, or a damaged
	// non-final segment. Append-only writing cannot produce it; operator
	// attention (or a deleted log) is required.
	ErrCorrupt = errors.New("wal: corrupt log")
)

const (
	headerSize = 8
	// frameOverhead = length prefix + crc suffix.
	frameOverhead = 8
	// bodyMin = type byte + seq.
	bodyMin = 9
	// maxBody bounds one record's body: append refuses anything larger,
	// and decode treats a larger length as torn/corrupt.
	maxBody = 64 << 20
)

// header is the segment magic + format version. Bump the last byte on
// any incompatible format change.
var header = [headerSize]byte{'V', 'W', 'A', 'L', 'S', 'E', 'G', 1}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is one scenario's write-ahead log. All methods are safe for
// concurrent use; in the daemon, appends and checkpoints both come from
// the scenario's actor.
type Log struct {
	mu   sync.Mutex
	fs   failfs.FS
	dir  string
	opts Options
	m    *Metrics

	segs    []segment // on-disk segments, ascending first-seq; last is active
	active  failfs.File
	actSize int64
	nextSeq uint64

	lastSync  time.Time
	dirty     bool
	truncated int   // torn tails truncated during Open
	failed    error // sticky: a failed append poisons the segment tail
	closed    bool
}

type segment struct {
	name  string // file name within dir
	first uint64 // seq of its first record
}

// segName formats the canonical segment file name for a first seq.
func segName(first uint64) string { return fmt.Sprintf("%020d.wal", first) }

// parseSegName extracts the first seq from a segment file name.
func parseSegName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".wal")
	if !ok || len(base) == 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open opens (creating if necessary) the scenario log in dir, scans the
// existing segments, truncates a torn tail in the final segment, and
// positions the log to append at the next sequence number. The returned
// log is ready for Replay (which re-reads the decoded suffix from disk)
// and Append.
func Open(dir string, opts Options) (*Log, error) {
	opts.setDefaults()
	l := &Log{fs: opts.FS, dir: dir, opts: opts, m: opts.Metrics, nextSeq: 1}
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegName(e.Name()); ok {
			l.segs = append(l.segs, segment{name: e.Name(), first: first})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })
	if err := l.recoverTail(); err != nil {
		return nil, err
	}
	l.m.observeOpen(len(l.segs), l.truncated)
	return l, nil
}

// recoverTail scans the segments, validates the seq chain, truncates a
// torn tail of the final segment (or drops it entirely when even its
// header is torn), and sets nextSeq.
func (l *Log) recoverTail() error {
	if len(l.segs) > 0 {
		// Compaction may have dropped the prefix of the chain; the
		// decode contract is only that the *surviving* segments chain
		// contiguously from the first one's seq.
		l.nextSeq = l.segs[0].first
	}
	for i := 0; i < len(l.segs); i++ {
		seg := l.segs[i]
		final := i == len(l.segs)-1
		path := filepath.Join(l.dir, seg.name)
		data, err := l.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if seg.first != l.nextSeq {
			return fmt.Errorf("%w: segment %s starts at seq %d, want %d", ErrCorrupt, seg.name, seg.first, l.nextSeq)
		}
		good, records, derr := decodeSegment(data, seg.first, nil)
		switch {
		case derr == nil && good == len(data):
			l.nextSeq += uint64(records)
			continue
		case !final:
			// Only the last segment may carry a torn tail; damage earlier
			// in the chain is real corruption.
			return fmt.Errorf("%w: segment %s: %v", ErrCorrupt, seg.name, tailErr(derr))
		}
		// Torn tail (or torn header) of the final segment: keep the valid
		// prefix, drop the rest. A zero-record segment with a torn header
		// is removed outright — it never held a durable record.
		l.truncated++
		if good < headerSize {
			if err := l.fs.Remove(path); err != nil {
				return fmt.Errorf("wal: drop torn segment: %w", err)
			}
			l.segs = l.segs[:i]
			break
		}
		f, err := l.fs.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.nextSeq += uint64(records)
	}
	return nil
}

func tailErr(err error) error {
	if err == nil {
		return errors.New("trailing data after valid records")
	}
	return err
}

// decodeSegment walks one segment's bytes. It returns the byte offset
// of the end of the last fully-valid record (the truncation point), the
// number of records decoded, and the decode error that stopped the walk
// (nil when the whole buffer decoded cleanly). emit, when non-nil,
// receives each record; its error aborts the walk and is returned
// verbatim (distinguishable because good/records still advance).
func decodeSegment(data []byte, firstSeq uint64, emit func(Record) error) (good, records int, err error) {
	if len(data) < headerSize || [headerSize]byte(data[:headerSize]) != header {
		return 0, 0, fmt.Errorf("bad segment header")
	}
	off := headerSize
	seq := firstSeq
	for off < len(data) {
		if len(data)-off < 4 {
			return off, records, fmt.Errorf("torn length prefix")
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n < bodyMin || n > maxBody {
			return off, records, fmt.Errorf("bad record length %d", n)
		}
		if len(data)-off < 4+n+4 {
			return off, records, fmt.Errorf("torn record body")
		}
		body := data[off+4 : off+4+n]
		crc := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.Checksum(body, castagnoli) != crc {
			return off, records, fmt.Errorf("checksum mismatch at seq %d", seq)
		}
		if got := binary.LittleEndian.Uint64(body[1:9]); got != seq {
			return off, records, fmt.Errorf("sequence break: record %d where %d expected", got, seq)
		}
		if emit != nil {
			rec := Record{Type: Type(body[0]), Seq: seq, Payload: body[9:n:n]}
			if err := emit(rec); err != nil {
				return off, records, err
			}
		}
		off += 4 + n + 4
		seq++
		records++
	}
	return off, records, nil
}

// emitError marks an error returned by a Replay callback, so it can
// propagate verbatim instead of being reported as segment damage.
type emitError struct{ err error }

func (e emitError) Error() string { return e.err.Error() }

// Replay streams every durable record, in seq order, to fn. It re-reads
// the segment files (Open already dropped any torn tail), so it can run
// before, between, or after appends; records appended during the replay
// are not guaranteed to be seen. fn's error aborts the replay and is
// returned unchanged.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	fs := l.fs
	l.mu.Unlock()
	for _, seg := range segs {
		data, err := fs.ReadFile(filepath.Join(l.dir, seg.name))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		_, _, derr := decodeSegment(data, seg.first, func(rec Record) error {
			l.m.observeReplay(1)
			if err := fn(rec); err != nil {
				return emitError{err}
			}
			return nil
		})
		if derr != nil {
			var ee emitError
			if errors.As(derr, &ee) {
				return ee.err
			}
			// A decode failure here means the file changed or broke after
			// Open validated it; surface it rather than silently stopping.
			return fmt.Errorf("wal: segment %s: %w", seg.name, derr)
		}
	}
	return nil
}

// Append frames, checksums, and writes one record, returning its
// assigned sequence number. Depending on the sync policy the record is
// fsynced before Append returns; the caller must not acknowledge the
// command to a client until Append has succeeded. A failed append
// poisons the log (the segment tail is suspect) — every later Append
// fails until the log is reopened, which re-runs torn-tail recovery.
func (l *Log) Append(typ Type, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(typ, payload, false)
}

// Checkpoint appends a record that by itself rebuilds everything the
// log's earlier records describe, and drops those records: it starts a
// fresh segment, appends the record as its first, fsyncs whatever the
// sync policy, and only then removes every older segment. A crash
// before the fsync leaves the old chain (plus a torn tail Open drops);
// a crash after it leaves old segments in front of the checkpoint, which
// the record supersedes on replay. Failing to append poisons the log
// like any failed Append; failing to remove an old segment is returned
// but leaves the log fully usable — the next Checkpoint removes it.
func (l *Log) Checkpoint(typ Type, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.appendLocked(typ, payload, true); err != nil {
		return err
	}
	removed := 0
	for len(l.segs) > 1 {
		if err := l.fs.Remove(filepath.Join(l.dir, l.segs[0].name)); err != nil {
			return fmt.Errorf("wal: compact: %w", err)
		}
		l.segs = l.segs[1:]
		removed++
		l.m.observeCompact(1)
		l.m.observeSegments(-1)
	}
	if removed > 0 {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal: compact: %w", err)
		}
	}
	return nil
}

// appendLocked is Append with l.mu held. checkpoint makes the record
// the first of a fresh segment and durable before returning.
func (l *Log) appendLocked(typ Type, payload []byte, checkpoint bool) (uint64, error) {
	start := time.Now()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, fmt.Errorf("wal: log poisoned by earlier append failure: %w", l.failed)
	}
	if bodyMin+len(payload) > maxBody {
		// Decode would take it for a torn tail and truncate it away; refuse
		// before touching the segment, so the log stays usable.
		return 0, fmt.Errorf("wal: %s record of %d bytes exceeds the %d-byte limit", typ, len(payload), maxBody-bodyMin)
	}
	if err := l.ensureSegmentLocked(checkpoint); err != nil {
		l.failed = err
		return 0, err
	}
	seq := l.nextSeq
	n := bodyMin + len(payload)
	buf := make([]byte, 4+n+4)
	binary.LittleEndian.PutUint32(buf, uint32(n))
	buf[4] = byte(typ)
	binary.LittleEndian.PutUint64(buf[5:], seq)
	copy(buf[13:], payload)
	body := buf[4 : 4+n]
	binary.LittleEndian.PutUint32(buf[4+n:], crc32.Checksum(body, castagnoli))

	if _, err := l.active.Write(buf); err != nil {
		l.failed = err
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.actSize += int64(len(buf))
	l.dirty = true
	if checkpoint || l.opts.Policy == SyncAlways ||
		(l.opts.Policy == SyncInterval && time.Since(l.lastSync) >= l.opts.SyncEvery) {
		if err := l.syncLocked(); err != nil {
			l.failed = err
			return 0, err
		}
	}
	l.nextSeq++
	l.m.observeAppend(len(buf), time.Since(start))
	return seq, nil
}

// ensureSegmentLocked opens the active segment, creating or rotating as
// needed: the next record goes into the last segment while that has
// room — or, when fresh is set, only if it would be that segment's
// first record. Called with l.mu held.
func (l *Log) ensureSegmentLocked(fresh bool) error {
	usable := func(size int64) bool {
		if fresh {
			return l.segs[len(l.segs)-1].first == l.nextSeq
		}
		return size < l.opts.SegmentBytes
	}
	if l.active != nil {
		if usable(l.actSize) {
			return nil
		}
		// Rotate: seal the segment.
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
		l.active = nil
	} else if len(l.segs) > 0 {
		// Fresh log handle over an existing chain: append to the last
		// segment if it can take the record.
		seg := l.segs[len(l.segs)-1]
		fi, err := l.fs.Stat(filepath.Join(l.dir, seg.name))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if usable(fi.Size()) {
			f, err := l.fs.OpenFile(filepath.Join(l.dir, seg.name), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.active, l.actSize = f, fi.Size()
			return nil
		}
	}
	// New segment: header, fsync the file, fsync the directory so the
	// file's existence survives a crash before its first record does.
	name := segName(l.nextSeq)
	f, err := l.fs.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(header[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.segs = append(l.segs, segment{name: name, first: l.nextSeq})
	l.active, l.actSize = f, headerSize
	l.lastSync = time.Now()
	l.m.observeSegments(1)
	return nil
}

// syncLocked fsyncs the active segment if it has un-synced appends.
// Called with l.mu held.
func (l *Log) syncLocked() error {
	if !l.dirty || l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.lastSync = time.Now()
	l.m.observeSync()
	return nil
}

// Close syncs and closes the active segment. Idempotent; appends after
// Close fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.active.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	l.active = nil
	return err
}
