package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testHeader is the header of a first segment under fingerprint fp.
func testHeader(fp string) walHeader {
	return walHeader{WAL: walVersion, Fingerprint: fp, Seq: 1}
}

// openEntries reopens a segment and returns it with its entries.
func openEntries(path, fp string) (*WAL, []Entry, error) {
	w, _, entries, err := openSegment(path, fp)
	return w, entries, err
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	w, err := createSegment(path, testHeader("fp-1"))
	if err != nil {
		t.Fatal(err)
	}
	wrote := []Entry{
		ArrivalEntry(Request{Node: 3, Count: 2, Class: Critical}),
		TickEntry(),
		ArrivalEntry(Request{Node: 0, Count: 1, Class: Batch}),
	}
	for _, e := range wrote {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(wrote) {
		t.Fatalf("count %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, entries, err := openEntries(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entries, wrote) {
		t.Fatalf("replayed %+v, wrote %+v", entries, wrote)
	}
	// Appends after recovery land behind the replayed entries.
	extra := ArrivalEntry(Request{Node: 7, Count: 4, Class: Standard})
	if err := w2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, entries, err = openEntries(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || !reflect.DeepEqual(entries[3], extra) {
		t.Fatalf("after reopen: %+v", entries)
	}
}

func TestWALTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	w, err := createSegment(path, testHeader("fp"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(TickEntry()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, newline-less final record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n":5,"c"`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, entries, err := openEntries(path, "fp")
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(entries) != 1 || !entries[0].Tick {
		t.Fatalf("replayed %+v", entries)
	}
	// The torn bytes are gone: the next append produces a clean log.
	if err := w2.Append(ArrivalEntry(Request{Node: 5, Count: 1})); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, entries, err = openEntries(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Node != 5 {
		t.Fatalf("after torn-tail recovery: %+v", entries)
	}
}

func TestWALRefusesForeignFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	w, err := createSegment(path, testHeader("config-a"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, err := openEntries(path, "config-b"); err == nil ||
		!strings.Contains(err.Error(), "refusing to replay") {
		t.Fatalf("foreign fingerprint accepted: %v", err)
	}
}

func TestWALRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.log")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openEntries(empty, "fp"); err == nil {
		t.Fatal("empty file accepted as a WAL")
	}
	junk := filepath.Join(dir, "junk.log")
	if err := os.WriteFile(junk, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openEntries(junk, "fp"); err == nil {
		t.Fatal("junk header accepted as a WAL")
	}
}

// TestWALRefusesHeaderWithoutSeq: every segment header carries its
// sequence number (from 1); a header without one — the pre-segmentation
// single-file layout, or a hand-edited file — is refused loudly rather
// than adopted as the first segment.
func TestWALRefusesHeaderWithoutSeq(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-000001.log"),
		[]byte(`{"wal":1,"fingerprint":"fp"}`+"\n"+`{"n":-1,"t":true}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenLog(dir, "fp", 0); err == nil || !strings.Contains(err.Error(), "seq") {
		t.Fatalf("segment header without seq accepted: %v", err)
	}
	// A directory holding only a pre-segmentation wal.log is refused, not
	// silently started afresh.
	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, "wal.log"),
		[]byte(`{"wal":1,"fingerprint":"fp"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LogExists(legacy); err == nil || !strings.Contains(err.Error(), "wal.log") {
		t.Fatalf("LogExists on a lone wal.log: %v; want a refusal", err)
	}
}
