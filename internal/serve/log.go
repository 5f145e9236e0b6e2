package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// segPattern names segment files: wal-000001.log, wal-000002.log, …
// Sequence numbers are dense and strictly increasing; the highest one is
// the active (append) segment, everything below it is sealed.
const segPattern = "wal-%06d.log"

func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf(segPattern, seq))
}

// segInfo describes one sealed segment: its sequence number, the global
// index of its first entry, and how many entries it holds. Sealed
// segments are immutable, so TruncateBefore can delete whole files by
// comparing base+count against a checkpoint cursor.
type segInfo struct {
	seq   int
	base  int
	count int
}

// Log is the segmented write-ahead log of one state directory. It behaves
// like the single append-only WAL it replaces — entries carry global
// indices, Count is the global length — but the bytes live in a chain of
// segment files that rotate every segEntries appends, so
// checkpoint-anchored truncation (TruncateBefore) can bound the state
// directory of a long-running server by deleting sealed segments that a
// restorable checkpoint has made redundant. segEntries <= 0 disables
// rotation: the log stays a single wal-000001.log forever.
type Log struct {
	dir         string
	fingerprint string
	segEntries  int

	// mu serialises appends (which arrive under the ingest-queue lock)
	// against the consumer goroutine's Sync and truncation.
	mu sync.Mutex

	active     *WAL // highest-seq segment, open for append
	activeSeq  int
	activeBase int // global index of the active segment's first entry

	sealed []segInfo // ascending seq; candidates for truncation
}

// CreateLog starts a fresh segmented log in dir.
func CreateLog(dir, fingerprint string, segEntries int) (*Log, error) {
	w, err := createSegment(segmentPath(dir, 1), walHeader{WAL: walVersion, Fingerprint: fingerprint, Seq: 1})
	if err != nil {
		return nil, err
	}
	return &Log{dir: dir, fingerprint: fingerprint, segEntries: segEntries, active: w, activeSeq: 1}, nil
}

// listSegments returns the segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	seqs := make([]int, 0, len(names))
	for _, name := range names {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(name), segPattern, &seq); err != nil || seq <= 0 {
			return nil, fmt.Errorf("serve: %s: not a WAL segment name", name)
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}

// LogExists reports whether dir holds a write-ahead log. A directory
// holding only the pre-segmentation single-file log (wal.log) is refused
// rather than silently started afresh: this version no longer reads it.
func LogExists(dir string) (bool, error) {
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) > 0 {
		return len(seqs) > 0, err
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		return false, fmt.Errorf("serve: %s holds a pre-segmentation wal.log, which this version does not read", dir)
	}
	return false, nil
}

// OpenLog reads an existing log back for recovery. It returns the log
// positioned for appends, the global index of the first retained entry
// (non-zero once truncation has deleted sealed segments — the caller must
// then restore from a checkpoint instead of replaying from scratch), and
// the retained entries in order.
func OpenLog(dir, fingerprint string, segEntries int) (*Log, int, []Entry, error) {
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, 0, nil, err
	}
	if len(seqs) == 0 {
		return nil, 0, nil, fmt.Errorf("serve: %s holds no WAL", dir)
	}

	log := &Log{dir: dir, fingerprint: fingerprint, segEntries: segEntries}
	var all []Entry
	base := -1
	next := 0 // expected base of the next segment in the chain
	for i, seq := range seqs {
		if i > 0 && seq != seqs[i-1]+1 {
			return nil, 0, nil, fmt.Errorf("serve: %s: WAL segment %d missing — log lost entries", dir, seqs[i-1]+1)
		}
		path := segmentPath(dir, seq)
		w, hdr, entries, err := openSegment(path, fingerprint)
		if err != nil {
			return nil, 0, nil, err
		}
		if hdr.Seq != seq {
			w.Close()
			return nil, 0, nil, fmt.Errorf("serve: %s: header seq %d does not match file name", path, hdr.Seq)
		}
		if i == 0 {
			base = hdr.Base
		} else if hdr.Base != next {
			w.Close()
			return nil, 0, nil, fmt.Errorf("serve: %s: segment base %d, previous segments end at %d — log lost entries", path, hdr.Base, next)
		}
		next = hdr.Base + len(entries)
		if i < len(seqs)-1 {
			// Sealed segment: a torn tail here is not a crash artifact (only
			// the last segment was ever open for append) but lost data, which
			// the base check of the next segment reports above. Close it; only
			// the active segment stays open.
			if err := w.Close(); err != nil {
				return nil, 0, nil, err
			}
			log.sealed = append(log.sealed, segInfo{seq: seq, base: hdr.Base, count: len(entries)})
		} else {
			log.active = w
			log.activeSeq = seq
			log.activeBase = hdr.Base
		}
		all = append(all, entries...)
	}
	return log, base, all, nil
}

// Append logs one entry, rotating to a fresh segment first when the
// active one is full.
func (l *Log) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.segEntries > 0 && l.active.Count() >= l.segEntries {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	return l.active.Append(e)
}

// rotate seals the active segment (synced to stable storage — it will
// never be written again) and starts the next one.
func (l *Log) rotate() error {
	if err := l.active.Sync(); err != nil {
		return err
	}
	sealed := segInfo{seq: l.activeSeq, base: l.activeBase, count: l.active.Count()}
	if err := l.active.Close(); err != nil {
		return err
	}
	next := sealed.base + sealed.count
	w, err := createSegment(segmentPath(l.dir, l.activeSeq+1),
		walHeader{WAL: walVersion, Fingerprint: l.fingerprint, Seq: l.activeSeq + 1, Base: next})
	if err != nil {
		return err
	}
	l.sealed = append(l.sealed, sealed)
	l.active = w
	l.activeSeq++
	l.activeBase = next
	return nil
}

// Count returns the global number of entries appended or read back,
// including entries in segments already truncated away.
func (l *Log) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.activeBase + l.active.Count()
}

// Base returns the global index of the oldest retained entry.
func (l *Log) Base() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.sealed) > 0 {
		return l.sealed[0].base
	}
	return l.activeBase
}

// Segments returns the number of on-disk segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// TruncateBefore deletes sealed segments whose entries all lie below the
// given cursor, returning how many files were removed. The caller must
// hold a durable checkpoint at (or beyond) cursor that recovery can
// restore from, since the deleted entries can no longer be replayed. The
// active segment is never deleted.
func (l *Log) TruncateBefore(cursor int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.sealed) > 0 && l.sealed[0].base+l.sealed[0].count <= cursor {
		if err := os.Remove(segmentPath(l.dir, l.sealed[0].seq)); err != nil {
			return removed, err
		}
		l.sealed = l.sealed[1:]
		removed++
	}
	return removed, nil
}

// Sync forces the active segment to stable storage (sealed segments were
// synced when rotated).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active.Sync()
}

// Close flushes and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active.Close()
}
