// Package workerfault injects deterministic failures into the protocol
// streams of a figure-runner worker (runner.ServePool), so tests can drive
// the pool's fault tolerance through real worker subprocesses. Only test
// worker entry points install it — the TestMain hooks of the runner and
// cmd/figures test binaries wrap their stdin/stdout with Fault.Wrap — and
// no production binary imports it.
//
// A fault arms after After healthy responses and fires once per process
// (a respawned worker starts healthy unless its spawner arms it again), so
// every mode converts into the pool's requeue path at a known cell and the
// run still completes:
//
//	exit        the process exits right after writing response After — the
//	            classic crash; the next assignment hits a dead pipe
//	wedge       on the next assignment the worker stops responding but
//	            stays alive: only the response deadline can convert it
//	slow        every response from After on is delayed by Delay; under the
//	            deadline this is pure jitter, over it the worker is treated
//	            as wedged
//	garbage     response After+1 is replaced by a non-JSON line
//	disconnect  the worker drops the connection mid-cell: assignment
//	            After+1 is read but never answered
package workerfault

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Kinds lists the supported fault matrix, in documentation order.
var Kinds = []string{"exit", "wedge", "slow", "garbage", "disconnect"}

// Fault is one injected worker failure mode.
type Fault struct {
	// Kind is one of Kinds.
	Kind string
	// After is how many responses are served healthily first.
	After int
	// Delay is the slow-mode per-response delay and the wedge-mode stuck
	// time; 0 selects 250ms (slow) / 2min (wedge).
	Delay time.Duration

	served int  // responses fully written
	fired  bool // one-shot modes only fire once per process
}

// Parse parses "kind:N[:delay]"; "" is no fault (nil). The optional delay
// applies to slow and wedge.
func Parse(s string) (*Fault, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("workerfault: invalid fault %q, want kind:N[:delay]", s)
	}
	f := &Fault{Kind: parts[0]}
	known := false
	for _, k := range Kinds {
		known = known || f.Kind == k
	}
	if !known {
		return nil, fmt.Errorf("workerfault: unknown fault kind %q (want %s)", f.Kind, strings.Join(Kinds, ", "))
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("workerfault: invalid fault count in %q", s)
	}
	f.After = n
	if len(parts) == 3 {
		d, err := time.ParseDuration(parts[2])
		if err != nil || d < 0 {
			return nil, fmt.Errorf("workerfault: invalid fault delay in %q", s)
		}
		f.Delay = d
	}
	return f, nil
}

// String renders the fault back into Parse syntax.
func (f *Fault) String() string {
	if f == nil {
		return ""
	}
	if f.Delay > 0 {
		return fmt.Sprintf("%s:%d:%s", f.Kind, f.After, f.Delay)
	}
	return fmt.Sprintf("%s:%d", f.Kind, f.After)
}

// Wrap returns the worker's protocol streams with the fault installed: r
// carries the coordinator's assignment lines, w the worker's responses,
// one per Write call (the runner.ServePool contract). A nil fault returns
// the streams unchanged.
func (f *Fault) Wrap(r io.Reader, w io.Writer) (io.Reader, io.Writer) {
	if f == nil {
		return r, w
	}
	return &reader{f: f, rd: bufio.NewReader(r)}, &writer{f: f, w: w}
}

// delay returns the effective slow/wedge duration.
func (f *Fault) delay() time.Duration {
	if f.Delay > 0 {
		return f.Delay
	}
	if f.Kind == "wedge" {
		return 2 * time.Minute
	}
	return 250 * time.Millisecond
}

// armed reports whether a not-yet-fired fault has served its healthy
// prefix.
func (f *Fault) armed() bool { return !f.fired && f.served >= f.After }

// errDisconnect ends the worker's session without answering the in-flight
// cell.
var errDisconnect = errors.New("workerfault: disconnecting mid-cell")

// reader hands the worker one assignment line per Read, firing the
// in-flight faults as each cell assignment arrives: a wedged worker sleeps
// before the line is delivered — by the time it resumes the coordinator
// has killed it — and a disconnecting worker ends its input stream with an
// error instead.
type reader struct {
	f       *Fault
	rd      *bufio.Reader
	pending []byte
}

func (r *reader) Read(p []byte) (int, error) {
	if len(r.pending) == 0 {
		line, err := r.rd.ReadBytes('\n')
		if len(line) == 0 {
			return 0, err
		}
		if assignment(line) && r.f.armed() {
			switch r.f.Kind {
			case "wedge":
				r.f.fired = true
				fmt.Fprintf(os.Stderr, "workerfault: worker wedged for %v\n", r.f.delay())
				time.Sleep(r.f.delay())
			case "disconnect":
				r.f.fired = true
				fmt.Fprintln(os.Stderr, "workerfault: worker disconnecting mid-cell")
				return 0, errDisconnect
			}
		}
		r.pending = line
	}
	n := copy(p, r.pending)
	r.pending = r.pending[n:]
	return n, nil
}

// assignment reports whether a protocol line assigns a cell (as opposed
// to announcing a spec or being blank).
func assignment(line []byte) bool {
	line = bytes.TrimSpace(line)
	return len(line) > 0 && !bytes.HasPrefix(line, []byte("SPEC "))
}

// writer fires the response-stream faults: slow delays each response,
// garbage replaces one with a line no JSON decoder accepts, and exit kills
// the process right after response After is on the wire, so the
// coordinator receives that cell's result and the next assignment hits the
// dead pipe.
type writer struct {
	f *Fault
	w io.Writer
}

func (w *writer) Write(p []byte) (int, error) {
	f := w.f
	out := p
	if f.armed() {
		switch f.Kind {
		case "slow":
			time.Sleep(f.delay()) // every response from After on; never "fired"
		case "garbage":
			f.fired = true
			fmt.Fprintln(os.Stderr, "workerfault: worker emitting garbage")
			out = []byte("!!not json!!\n")
		}
	}
	if _, err := w.w.Write(out); err != nil {
		return 0, err
	}
	f.served++
	if f.Kind == "exit" && f.armed() {
		f.fired = true
		fmt.Fprintln(os.Stderr, "workerfault: worker exiting after response")
		os.Exit(1)
	}
	return len(p), nil
}
