package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// cellMsg is one worker-protocol response: the cell index it answers, and
// either the cell's values (plus its wall-clock nanoseconds, for timing-
// balanced shard planning) or the error it failed with.
type cellMsg struct {
	Idx    int       `json:"i"`
	Values []float64 `json:"v,omitempty"`
	Nanos  int64     `json:"ns,omitempty"`
	Err    string    `json:"err,omitempty"`
}

// ServePool runs the worker half of the pool protocol until r reaches EOF.
// Lines on r are either "SPEC <name>" — switch to serving the named spec,
// built via build — or a decimal cell index of the current spec; the
// coordinator always announces a spec before its first cell. Each cell's
// response is one JSON line written to w in a single Write call, carrying
// the cell's wall-clock nanoseconds so the coordinator can balance future
// shard assignments by measured cost. A cell that fails is reported inside
// its response and the worker stays up; a malformed assignment ends the
// session with an error.
func ServePool(build func(name string) (*Spec, error), r io.Reader, w io.Writer) error {
	var cur *Spec
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if name, ok := strings.CutPrefix(line, "SPEC "); ok {
			name = strings.TrimSpace(name)
			if cur != nil && cur.Name == name {
				continue
			}
			s, err := build(name)
			if err != nil {
				return err
			}
			if err := s.Validate(); err != nil {
				return err
			}
			cur = s
			continue
		}
		if cur == nil {
			return fmt.Errorf("runner: cell assignment %q before any SPEC line", line)
		}
		msg, err := serveCell(cur, line)
		if err != nil {
			return err
		}
		out, err := json.Marshal(msg)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(out, '\n')); err != nil {
			return err
		}
	}
	return sc.Err()
}

// serveCell evaluates one assignment line against the spec and builds the
// reply. Cell failures travel inside the message — the worker stays up; only
// malformed assignments are protocol errors that bring the worker down.
func serveCell(s *Spec, line string) (cellMsg, error) {
	idx, err := strconv.Atoi(line)
	if err != nil {
		return cellMsg{}, fmt.Errorf("runner: bad cell assignment %q: %w", line, err)
	}
	if idx < 0 || idx >= s.Cells() {
		return cellMsg{}, fmt.Errorf("runner: cell assignment %d outside grid of %d cells", idx, s.Cells())
	}
	msg := cellMsg{Idx: idx}
	xi, vi, run := s.Coords(idx)
	start := time.Now() //repcheck:allow-wallclock per-cell timing is diagnostic metadata, not a result value
	v, err := s.Cell(xi, vi, run)
	if err != nil {
		msg.Err = err.Error()
		return msg, nil
	}
	msg.Values = v
	msg.Nanos = time.Since(start).Nanoseconds() //repcheck:allow-wallclock per-cell timing is diagnostic metadata, not a result value
	return msg, nil
}
